package main

import (
	"fmt"
	"runtime"
	"time"

	"tipsy/internal/dataset"
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

// The wire_cycle horizon: two weeks of paper-scale telemetry, the
// last five days held out for scoring. Three test days left the
// outage-restricted accuracy to so few events that it moved 12% from
// seed to seed; five hold it to about 5%.
const (
	wireTrainDays = 9
	wireTestDays  = 5
	wireSetups    = 25
)

// wireInputs is the generated input of wire_cycle: the paper-scale
// topology and traffic of eval.DefaultEnvConfig(envSeed), simulated
// with the run's seed.
type wireInputs struct {
	cfg    eval.EnvConfig
	metros *geo.DB
	g      *topology.Graph
	w      *traffic.Workload
}

func newWireInputs(seed int64) *wireInputs {
	cfg := eval.DefaultEnvConfig(envSeed)
	cfg.SimCfg.Seed = seed + 20
	cfg.TrainDays, cfg.TestDays = wireTrainDays, wireTestDays
	cfg.SimCfg.HorizonHours = wan.Hour((wireTrainDays + wireTestDays) * 24)
	// As in eval.SmallEnvConfig: enough outages that the five test
	// days score outage accuracy over many events, not a handful.
	cfg.SimCfg.OutagesPerLinkYear = 10
	metros := geo.World()
	g := topology.Generate(cfg.TopoCfg, metros)
	return &wireInputs{cfg: cfg, metros: metros, g: g, w: traffic.Generate(cfg.TrafficCfg, g, metros)}
}

// sim builds a fresh simulator, so every pass starts with cold
// resolution caches, as a day of new telemetry does.
func (in *wireInputs) sim() *netsim.Sim {
	return netsim.New(in.cfg.SimCfg, in.g, in.metros, in.w)
}

// wireChain carries netsim's output across the IPFIX wire: each hour's
// records are exported through an ipfix.Exporter whose writer hands
// every message to ipfix.Collector.HandleMessageBatch, which hands the
// decoded records to pipeline.Aggregator.RecordBatch.
type wireChain struct {
	exp  *ipfix.Exporter
	coll *ipfix.Collector
	agg  *pipeline.Aggregator
	err  error

	// capture keeps copies of the exported and decoded records for
	// the reference checks.
	capture            bool
	exported, received []ipfix.FlowRecord

	tr   *tracer
	root int
	// Per-hour traced tallies: time inside Write (decode plus
	// aggregate) and inside RecordBatch (aggregate), and the span of
	// the per-message calls.
	inWrite, inAgg   time.Duration
	msgs, calls      int64
	first, lastWrite time.Time
	records          int64
	inSink, sinkCPU  time.Duration
}

func newWireChain(sim *netsim.Sim, tr *tracer, root int) *wireChain {
	c := &wireChain{
		coll: ipfix.NewCollector(),
		agg:  pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata),
		tr:   tr,
		root: root,
	}
	c.exp = ipfix.NewExporter(c, 1)
	return c
}

// Record implements netsim.RecordSink; Run uses RecordBatch instead.
func (c *wireChain) Record(_ wan.Hour, _ wan.LinkID, rec *ipfix.FlowRecord) {
	c.RecordBatch([]ipfix.FlowRecord{*rec})
}

// RecordBatch exports one simulated hour and flushes it, stamped with
// the hour's end.
func (c *wireChain) RecordBatch(recs []ipfix.FlowRecord) {
	if len(recs) == 0 || c.err != nil {
		return
	}
	var start time.Time
	var cpu0 time.Duration
	if c.tr != nil {
		start, cpu0 = time.Now(), selfCPU()
		c.inWrite, c.inAgg, c.calls = 0, 0, 0
	}
	if c.capture {
		c.exported = append(c.exported, recs...)
	}
	ts := (recs[0].StartSecs/3600 + 1) * 3600
	for i := range recs {
		if err := c.exp.Export(&recs[i], ts); err != nil {
			c.err = err
			return
		}
	}
	if err := c.exp.Flush(ts); err != nil {
		c.err = err
		return
	}
	if c.tr != nil {
		id, d := c.tr.layerSpan("ipfix.export", c.root, start, c.inWrite)
		c.tr.rollup("ipfix.decode", id, c.first, c.lastWrite, c.calls, c.inWrite-c.inAgg)
		c.tr.rollup("pipeline.aggregate", id, c.first, c.lastWrite, c.calls, c.inAgg)
		c.inSink += d
		c.sinkCPU += selfCPU() - cpu0
		c.records += int64(len(recs))
	}
}

// Write receives one IPFIX message from the exporter.
func (c *wireChain) Write(msg []byte) (int, error) {
	var start time.Time
	if c.tr != nil {
		start = time.Now()
		if c.calls == 0 {
			c.first = start
		}
	}
	err := c.coll.HandleMessageBatch(msg, c.onRecords)
	if c.tr != nil {
		c.lastWrite = time.Now()
		c.inWrite += c.lastWrite.Sub(start)
		c.calls++
		c.msgs++
	}
	return len(msg), err
}

func (c *wireChain) onRecords(_ uint32, recs []ipfix.FlowRecord) {
	if c.capture {
		c.received = append(c.received, recs...)
	}
	if c.tr == nil {
		c.agg.RecordBatch(recs)
		return
	}
	start := time.Now()
	c.agg.RecordBatch(recs)
	c.inAgg += time.Since(start)
}

// wirePass is the state one pass leaves behind for the checks.
type wirePass struct {
	chain        *wireChain
	all          []features.Record
	train, test  []features.Record
	model        *served
	view         *outageView
	acc, accOut  map[int]float64
	exportedRecs uint32
}

// runWirePass runs the timed chain once over the whole horizon, on a
// simulator it builds first.
func runWirePass(in *wireInputs, tr *tracer) (*wirePass, error) {
	root := tr.pass("wire_cycle.pass")
	trainTo := wan.Hour(in.cfg.TrainDays * 24)
	horizon := in.cfg.SimCfg.HorizonHours
	p := &wirePass{}
	start := tr.now()
	sim := in.sim()
	tr.layerSpan("netsim.new", root, start, 0)
	c := newWireChain(sim, tr, root)
	p.chain = c

	var cpu0 time.Duration
	if tr != nil {
		cpu0 = selfCPU()
	}
	runStart := tr.now()
	sim.Run(netsim.RunOptions{From: 0, To: horizon, Sink: c})
	if c.err != nil {
		return nil, fmt.Errorf("wire export: %w", c.err)
	}
	if tr != nil {
		tr.layerSpan("netsim.run", root, runStart, c.inSink)
		tr.add("netsim.cpu_ns", float64(selfCPU()-cpu0-c.sinkCPU))
		tr.add("netsim.records", float64(c.records))
		tr.add("ipfix.export.msgs", float64(c.msgs))
		tr.add("ipfix.decode.records", float64(c.coll.Stats().Records))
	}
	p.exportedRecs = c.exp.Sequence()

	start = tr.now()
	p.all = c.agg.Records()
	tr.layerSpan("pipeline.drain", root, start, 0)
	tr.add("pipeline.drain.aggregates", float64(len(p.all)))

	p.train = window(p.all, 0, trainTo, tr, root)
	p.test = window(p.all, trainTo, horizon, tr, root)
	p.model = trainServed(p.train, sim, in.metros, tr, root)
	p.acc = accuracy(p.model.model, p.test, eval.Options{Ks: []int{1, 3}}, tr, root)
	p.view = newOutageView(p.train, p.test, trainTo, horizon, tr, root)
	p.accOut = accuracy(p.model.model, p.test, p.view.options(true), tr, root)
	tr.end(root)
	return p, nil
}

func runWireCycle(rc runConfig) (*outcome, error) {
	o := newOutcome()
	// Set-up is generating the topology and the traffic and building
	// the seeded simulator over them; it is repeated and the median
	// reported, since one build is short. Each pass builds its own
	// simulator again, inside its timing.
	var setups []float64
	var in *wireInputs
	for i := 0; i < wireSetups; i++ {
		in = nil
		runtime.GC()
		start := selfCPU()
		in = newWireInputs(rc.seed)
		_ = in.sim()
		setups = append(setups, (selfCPU() - start).Seconds())
	}

	c0, p0 := gcStats()
	var passes []float64
	var last *wirePass
	var rss float64
	end := deadline(rc.seconds)
	for len(passes) == 0 || time.Now().Before(end) {
		last = nil
		runtime.GC()
		start := selfCPU()
		p, err := runWirePass(in, rc.tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, (selfCPU() - start).Seconds())
		last = p
		o.attempted++
		// peak_rss_mb is set-up plus one cycle, what an operator
		// provisions for. Later passes reuse the heap the first grew,
		// and whether they pushed the mark higher depended on GC
		// timing (1.2 or 1.4 GB), not on the program.
		if len(passes) == 1 {
			if rss, err = peakRSSMiB("self"); err != nil {
				return nil, err
			}
		}
		// Every pass must cross the wire without loss.
		st := p.chain.coll.Stats()
		o.check(st.Lost == 0 && st.Quarantined == 0 && st.Records == uint64(p.exportedRecs),
			"pass %d: exported %d records, collector decoded %d, lost %d, quarantined %d",
			len(passes), p.exportedRecs, st.Records, st.Lost, st.Quarantined)
	}
	o.set("setup_s", median(setups), "s")
	o.set("pass_cpu_s", median(passes), "s")
	o.set("peak_rss_mb", rss, "MiB")
	o.set("acc_k1", last.acc[1], "ratio")
	o.set("acc_k3", last.acc[3], "ratio")
	o.set("acc_k1_outage", last.accOut[1], "ratio")
	o.set("acc_k3_outage", last.accOut[3], "ratio")

	if tr := rc.tr; tr != nil {
		n := float64(len(passes))
		o.layer("netsim.new.busy_s", tr.busy["netsim.new"].Seconds()/n)
		o.layer("netsim.busy_s", tr.busy["netsim.run"].Seconds()/n)
		o.layer("netsim.cpu_s", tr.count["netsim.cpu_ns"]/1e9/n)
		o.layer("netsim.records", tr.count["netsim.records"]/n)
		o.layer("ipfix.export.busy_s", tr.busy["ipfix.export"].Seconds()/n)
		o.layer("ipfix.export.msgs", tr.count["ipfix.export.msgs"]/n)
		o.layer("ipfix.decode.busy_s", tr.busy["ipfix.decode"].Seconds()/n)
		o.layer("ipfix.decode.records", tr.count["ipfix.decode.records"]/n)
		o.layer("pipeline.aggregate.busy_s", tr.busy["pipeline.aggregate"].Seconds()/n)
		o.layer("pipeline.drain.busy_s", tr.busy["pipeline.drain"].Seconds()/n)
		o.layer("pipeline.drain.aggregates", tr.count["pipeline.drain.aggregates"]/n)
		scoreLayers(o, tr, len(passes), predictAllocsPerQuery(last.model.model, last.test))
		gcLayers(o, c0, p0, len(passes))
	}

	checkWire(o, in, last, rc.tr != nil)
	return o, nil
}

// checkWire runs the reference checks on the last pass. The record
// level checks replay one simulated day through a fresh chain that
// keeps copies of what it exported and decoded; that day's drained
// aggregates must also equal the timed pass's for the same hours.
func checkWire(o *outcome, in *wireInputs, p *wirePass, traced bool) {
	trainTo := wan.Hour(in.cfg.TrainDays * 24)
	from, to := trainTo-24, trainTo
	sim := in.sim()
	c := newWireChain(sim, nil, 0)
	c.capture = true
	sim.Run(netsim.RunOptions{From: from, To: to, Sink: c})
	o.checkErr("wire export", c.err)
	o.checkErr("wire losses", checkWireLoss(c.exported, c.received, c.coll.Stats()))
	day := c.agg.Records()
	o.checkErr("aggregation", checkAggregates(day, refAggregate(c.exported, sim.GeoIP(), sim.DstMetadata)))
	o.checkErr("replayed day vs timed pass", checkSameRecords(day, dataset.Window(p.all, from, to)))
	if traced {
		layerAllocs(o, sim, c.exported)
	}
	c = nil

	o.checkErr("Hist_AP shares", checkHistShares(p.model.hAP, features.SetAP, p.train, 16))
	o.checkErr("accuracy", checkAccuracy(p.acc, refAccuracy(p.model.model, p.test, []int{1, 3}, nil, nil)))
	o.checkErr("outage accuracy", checkAccuracy(p.accOut,
		refAccuracy(p.model.model, p.test, []int{1, 3}, p.view.selectOutage, p.view.exclude)))
}

// layerAllocs measures the heap allocations of the export, decode and
// aggregate layers in isolation by replaying recs through each layer
// alone, one simulated hour at a time.
func layerAllocs(o *outcome, sim *netsim.Sim, recs []ipfix.FlowRecord) {
	if len(recs) == 0 {
		return
	}
	var msgs [][]byte
	w := writerFunc(func(b []byte) (int, error) { msgs = append(msgs, b); return len(b), nil })
	exp := ipfix.NewExporter(w, 1)
	byHour := splitHours(recs)
	msgs = make([][]byte, 0, len(recs))
	before := allocs()
	for _, hour := range byHour {
		ts := (hour[0].StartSecs/3600 + 1) * 3600
		for i := range hour {
			_ = exp.Export(&hour[i], ts)
		}
		_ = exp.Flush(ts)
	}
	o.layer("ipfix.export.allocs_per_rec", float64(allocs()-before)/float64(len(recs)))

	coll := ipfix.NewCollector()
	batches := make([][]ipfix.FlowRecord, 0, len(msgs))
	for _, m := range msgs {
		_ = coll.HandleMessageBatch(m, func(_ uint32, rs []ipfix.FlowRecord) {
			batches = append(batches, append([]ipfix.FlowRecord(nil), rs...))
		})
	}
	coll = ipfix.NewCollector()
	noop := func(uint32, []ipfix.FlowRecord) {}
	before = allocs()
	for _, m := range msgs {
		_ = coll.HandleMessageBatch(m, noop)
	}
	o.layer("ipfix.decode.allocs_per_msg", float64(allocs()-before)/float64(len(msgs)))

	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	before = allocs()
	for _, b := range batches {
		agg.RecordBatch(b)
	}
	o.layer("pipeline.aggregate.allocs_per_rec", float64(allocs()-before)/float64(len(recs)))
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// splitHours cuts an hour-ordered record stream into per-hour runs.
func splitHours(recs []ipfix.FlowRecord) [][]ipfix.FlowRecord {
	var out [][]ipfix.FlowRecord
	start := 0
	for i := 1; i <= len(recs); i++ {
		if i == len(recs) || recs[i].StartSecs/3600 != recs[start].StartSecs/3600 {
			out = append(out, recs[start:i])
			start = i
		}
	}
	return out
}
