package main

import (
	"fmt"
	"runtime"
	"time"

	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// sliding_retrain slides tipsyd's 8-day training window over
// slidingSlides days, one day at a time (the paper's Fig. 11).
const (
	slidingTrainDays = 8
	slidingSlides    = 30
	slidingSetups    = 3
)

// slidingEnv is the ingested input of sliding_retrain.
type slidingEnv struct {
	sim    *netsim.Sim
	metros *geo.DB
	all    []features.Record
}

// timedAggregator is the direct-path sink of set-up: netsim hands each
// hour straight to the aggregator, and traced runs time the call.
type timedAggregator struct {
	agg   *pipeline.Aggregator
	tr    *tracer
	root  int
	recs  int64
	inAgg time.Duration
	cpu   time.Duration
}

func (t *timedAggregator) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	t.agg.Record(h, link, rec)
}

func (t *timedAggregator) RecordBatch(recs []ipfix.FlowRecord) {
	if t.tr == nil {
		t.agg.RecordBatch(recs)
		return
	}
	start, cpu0 := time.Now(), selfCPU()
	t.agg.RecordBatch(recs)
	_, d := t.tr.layerSpan("pipeline.aggregate", t.root, start, 0)
	t.inAgg += d
	t.cpu += selfCPU() - cpu0
	t.recs += int64(len(recs))
}

// buildSlidingEnv generates the small environment and ingests the
// whole horizon through the direct netsim → Aggregator path.
func buildSlidingEnv(seed int64, tr *tracer) *slidingEnv {
	cfg := eval.SmallEnvConfig(envSeed)
	cfg.SimCfg.Seed = seed + 20
	horizon := wan.Hour((slidingTrainDays + slidingSlides) * 24)
	cfg.SimCfg.HorizonHours = horizon
	metros := geo.World()
	g := topology.Generate(cfg.TopoCfg, metros)
	w := traffic.Generate(cfg.TrafficCfg, g, metros)
	root := tr.pass("sliding_retrain.setup")
	start := tr.now()
	sim := netsim.New(cfg.SimCfg, g, metros, w)
	tr.layerSpan("netsim.new", root, start, 0)
	sink := &timedAggregator{agg: pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata), tr: tr, root: root}
	var cpu0 time.Duration
	if tr != nil {
		cpu0 = selfCPU()
	}
	start = time.Now()
	sim.Run(netsim.RunOptions{From: 0, To: horizon, Sink: sink})
	if tr != nil {
		tr.layerSpan("netsim.run", root, start, sink.inAgg)
		tr.add("netsim.cpu_ns", float64(selfCPU()-cpu0-sink.cpu))
		tr.add("netsim.records", float64(sink.recs))
	}
	start = tr.now()
	all := sink.agg.Records()
	tr.layerSpan("pipeline.drain", root, start, 0)
	tr.add("pipeline.drain.aggregates", float64(len(all)))
	tr.end(root)
	return &slidingEnv{sim: sim, metros: metros, all: all}
}

// slide is one day of the sliding pass, kept for the checks.
type slide struct {
	model       *served
	test        []features.Record
	view        *outageView
	acc, accOut map[int]float64
}

// runSlidingPass trains on [d, d+8) days and scores day d+8, for each
// slide d.
func runSlidingPass(env *slidingEnv, tr *tracer) []slide {
	root := tr.pass("sliding_retrain.pass")
	slides := make([]slide, 0, slidingSlides)
	for d := 0; d < slidingSlides; d++ {
		from := wan.Hour(d * 24)
		to := from + slidingTrainDays*24
		train := window(env.all, from, to, tr, root)
		test := window(env.all, to, to+24, tr, root)
		s := slide{model: trainServed(train, env.sim, env.metros, tr, root), test: test}
		s.acc = accuracy(s.model.model, test, eval.Options{Ks: []int{1, 3}}, tr, root)
		s.view = newOutageView(train, test, to, to+24, tr, root)
		s.accOut = accuracy(s.model.model, test, s.view.options(true), tr, root)
		slides = append(slides, s)
	}
	tr.end(root)
	return slides
}

// meanAcc averages per-slide accuracy at k over the slides whose
// scored traffic was not empty.
func meanAcc(slides []slide, k int, outage bool) float64 {
	var xs []float64
	for _, s := range slides {
		acc := s.acc
		if outage {
			acc = s.accOut
		}
		if v, ok := acc[k]; ok {
			xs = append(xs, v)
		}
	}
	return mean(xs)
}

func runSlidingRetrain(rc runConfig) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var env *slidingEnv
	for i := 0; i < slidingSetups; i++ {
		env = nil
		runtime.GC()
		start := selfCPU()
		// Only the last set-up is traced, so the ingest layers report
		// one ingest.
		var tr *tracer
		if i == slidingSetups-1 {
			tr = rc.tr
		}
		env = buildSlidingEnv(rc.seed, tr)
		setups = append(setups, (selfCPU() - start).Seconds())
	}

	c0, p0 := gcStats()
	var passes []float64
	var last []slide
	var rss float64
	end := deadline(rc.seconds)
	for len(passes) == 0 || time.Now().Before(end) {
		last = nil
		runtime.GC()
		start := selfCPU()
		slides := runSlidingPass(env, rc.tr)
		passes = append(passes, (selfCPU() - start).Seconds())
		last = slides
		o.attempted++
		if len(passes) == 1 { // as in wire_cycle
			var err error
			if rss, err = peakRSSMiB("self"); err != nil {
				return nil, err
			}
		}
	}
	o.set("setup_s", median(setups), "s")
	o.set("pass_cpu_s", median(passes), "s")
	o.set("peak_rss_mb", rss, "MiB")
	o.set("acc_k1", meanAcc(last, 1, false), "ratio")
	o.set("acc_k3", meanAcc(last, 3, false), "ratio")
	o.set("acc_k1_outage", meanAcc(last, 1, true), "ratio")
	o.set("acc_k3_outage", meanAcc(last, 3, true), "ratio")

	if tr := rc.tr; tr != nil {
		o.layer("netsim.new.busy_s", tr.busy["netsim.new"].Seconds())
		o.layer("netsim.busy_s", tr.busy["netsim.run"].Seconds())
		o.layer("netsim.cpu_s", tr.count["netsim.cpu_ns"]/1e9)
		o.layer("netsim.records", tr.count["netsim.records"])
		o.layer("pipeline.aggregate.busy_s", tr.busy["pipeline.aggregate"].Seconds())
		o.layer("pipeline.drain.busy_s", tr.busy["pipeline.drain"].Seconds())
		o.layer("pipeline.drain.aggregates", tr.count["pipeline.drain.aggregates"])
		s := last[len(last)-1]
		scoreLayers(o, tr, len(passes), predictAllocsPerQuery(s.model.model, s.test))
		gcLayers(o, c0, p0, len(passes))
	}

	for i, s := range last {
		o.checkErr(fmt.Sprintf("slide %d accuracy", i),
			checkAccuracy(s.acc, refAccuracy(s.model.model, s.test, []int{1, 3}, nil, nil)))
		o.checkErr(fmt.Sprintf("slide %d outage accuracy", i), checkAccuracy(s.accOut,
			refAccuracy(s.model.model, s.test, []int{1, 3}, s.view.selectOutage, s.view.exclude)))
	}
	return o, nil
}
