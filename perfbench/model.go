package main

import (
	"time"

	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// envSeed generates the in-process workloads' topology and traffic
// matrix. The network is fixed and the run's seed drives the
// simulator: which peering links exist, Geo-IP errors, packet
// sampling, the outage schedule and routing drift. Seeding the
// topology as well made the work of a pass differ by up to 15% from
// seed to seed.
const envSeed = 1

// served is the model tipsyd serves, Hist_AP → Hist_AL+G → Hist_A,
// with its components.
type served struct {
	model        *core.Ensemble
	hA, hAP, hAL *core.Historical
	tuples       int
}

// trainServed fits the served ensemble on a training window, the way
// tipsyd's retrain does.
func trainServed(train []features.Record, links wan.Directory, metros *geo.DB, tr *tracer, parent int) *served {
	var before uint64
	if tr != nil {
		before = allocs()
	}
	start := tr.now()
	hA := core.TrainHistorical(features.SetA, train, core.DefaultHistOpts())
	hAP := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	hAL := core.TrainHistorical(features.SetAL, train, core.DefaultHistOpts())
	m := core.NewEnsemble(hAP, core.NewGeoCompletion(hAL, links, metros), hA)
	s := &served{model: m, hA: hA, hAP: hAP, hAL: hAL, tuples: hA.NumTuples() + hAP.NumTuples() + hAL.NumTuples()}
	if tr != nil {
		tr.layerSpan("core.train", parent, start, 0)
		tr.add("core.train.allocs", float64(allocs()-before))
		tr.add("core.train.tuples", float64(s.tuples))
	}
	return s
}

// window is dataset.Window under a span.
func window(recs []features.Record, from, to wan.Hour, tr *tracer, parent int) []features.Record {
	start := tr.now()
	out := dataset.Window(recs, from, to)
	tr.layerSpan("dataset.window", parent, start, 0)
	return out
}

// outageView is the §5.3 evaluation context of one test window: which
// links telemetry shows down when, and each flow's top training link.
type outageView struct {
	testOut *dataset.OutageIndex
	top     map[features.FlowFeatures]wan.LinkID
}

func newOutageView(train, test []features.Record, testFrom, testTo wan.Hour, tr *tracer, parent int) *outageView {
	start := tr.now()
	v := &outageView{
		testOut: dataset.NewOutageIndex(dataset.InferOutages(test, testFrom, testTo, dataset.DefaultInferOptions())),
		top:     dataset.TopLinks(train),
	}
	tr.layerSpan("dataset.outages", parent, start, 0)
	return v
}

// selectOutage keeps the flow-hours whose top training link was down.
func (v *outageView) selectOutage(f features.FlowFeatures, h wan.Hour) bool {
	top, ok := v.top[f]
	return ok && v.testOut.Down(top, h)
}

// exclude is the availability prior: links telemetry shows down.
func (v *outageView) exclude(l wan.LinkID, h wan.Hour) bool { return v.testOut.Down(l, h) }

// options returns the eval options for overall (outage false) or
// outage-restricted scoring.
func (v *outageView) options(outage bool) eval.Options {
	o := eval.Options{Ks: []int{1, 3}}
	if outage {
		o.Select, o.Exclude = v.selectOutage, v.exclude
	}
	return o
}

// timedPredictor wraps the scored model so traced runs can split
// eval.Accuracy's time into prediction and scoring.
type timedPredictor struct {
	core.Predictor
	queries int64
	inside  time.Duration
}

func (p *timedPredictor) Predict(q core.Query) []core.Prediction {
	start := time.Now()
	preds := p.Predictor.Predict(q)
	p.inside += time.Since(start)
	p.queries++
	return preds
}

// accuracy is eval.Accuracy under a span. Traced runs route the
// predictions through timedPredictor and charge their time to
// core.predict rather than eval.score.
func accuracy(model core.Predictor, test []features.Record, opts eval.Options, tr *tracer, parent int) map[int]float64 {
	if tr == nil {
		return eval.Accuracy(model, test, opts)
	}
	tp := &timedPredictor{Predictor: model}
	before := allocs()
	start := time.Now()
	acc := eval.Accuracy(tp, test, opts)
	tr.layerSpan("eval.score", parent, start, tp.inside)
	tr.add("eval.score.allocs", float64(allocs()-before))
	tr.busy["core.predict"] += tp.inside
	tr.add("core.predict.queries", float64(tp.queries))
	return acc
}

// scoreLayers converts the traced tallies of the train/predict/score
// layers into per-layer metrics, per pass. predictAllocs is the
// measured heap allocations of one Predict call, which the score
// layer's allocation count excludes.
func scoreLayers(o *outcome, tr *tracer, passes int, predictAllocs float64) {
	n := float64(passes)
	o.layer("dataset.window.busy_s", tr.busy["dataset.window"].Seconds()/n)
	o.layer("dataset.outages.busy_s", tr.busy["dataset.outages"].Seconds()/n)
	o.layer("core.train.busy_s", tr.busy["core.train"].Seconds()/n)
	o.layer("core.train.allocs", tr.count["core.train.allocs"]/n)
	o.layer("core.train.tuples", tr.count["core.train.tuples"]/n)
	q := tr.count["core.predict.queries"]
	o.layer("core.predict.queries", q/n)
	if q > 0 {
		o.layer("core.predict.ns_per_query", float64(tr.busy["core.predict"].Nanoseconds())/q)
		o.layer("eval.score.allocs_per_group", (tr.count["eval.score.allocs"]-q*predictAllocs)/q)
	}
	o.layer("eval.score.busy_s", tr.busy["eval.score"].Seconds()/n)
	o.layer("eval.score.groups", q/n)
}

// predictAllocsPerQuery measures the heap allocations of one Predict
// call on the model over the flows of test, as the score layer would
// issue them (one query per flow, k=3).
func predictAllocsPerQuery(model core.Predictor, test []features.Record) float64 {
	seen := make(map[features.FlowFeatures]bool)
	var qs []core.Query
	for _, r := range test {
		if !seen[r.Flow] {
			seen[r.Flow] = true
			qs = append(qs, core.Query{Flow: r.Flow, K: 3})
		}
	}
	if len(qs) == 0 {
		return 0
	}
	before := allocs()
	for _, q := range qs {
		model.Predict(q)
	}
	return float64(allocs()-before) / float64(len(qs))
}

// gcLayers reports the GC cycles and pause time per pass between two
// gcStats readings.
func gcLayers(o *outcome, c0 uint32, p0 time.Duration, passes int) {
	c1, p1 := gcStats()
	o.layer("runtime.gc_cycles", float64(c1-c0)/float64(passes))
	o.layer("runtime.gc_pause_s", (p1-p0).Seconds()/float64(passes))
}
