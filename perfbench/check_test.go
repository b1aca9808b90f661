package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// tinyWire runs a small seeded environment through the wire chain with
// capture on and returns the chain and its simulator.
func tinyWire(t *testing.T, seed int64, hours wan.Hour) (*wireChain, *netsim.Sim) {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	tc := traffic.TestConfig(seed + 10)
	tc.NFlows = 300
	w := traffic.Generate(tc, g, metros)
	sc := netsim.DefaultConfig(seed + 20)
	sc.HorizonHours = hours
	sc.OutagesPerLinkYear = 200
	sim := netsim.New(sc, g, metros, w)
	c := newWireChain(sim, nil, 0)
	c.capture = true
	sim.Run(netsim.RunOptions{From: 0, To: hours, Sink: c})
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(c.exported) == 0 {
		t.Fatal("tiny environment exported nothing")
	}
	return c, sim
}

func TestWireLossCheck(t *testing.T) {
	c, _ := tinyWire(t, 3, 12)
	if err := checkWireLoss(c.exported, c.received, c.coll.Stats()); err != nil {
		t.Fatalf("clean wire: %v", err)
	}
	bad := append([]ipfix.FlowRecord(nil), c.received...)
	bad[len(bad)/2].Octets++
	if checkWireLoss(c.exported, bad, c.coll.Stats()) == nil {
		t.Error("a corrupted decoded record passed")
	}
	if checkWireLoss(c.exported, c.received[1:], c.coll.Stats()) == nil {
		t.Error("a missing decoded record passed")
	}
	st := c.coll.Stats()
	st.Lost = 1
	if checkWireLoss(c.exported, c.received, st) == nil {
		t.Error("collector loss passed")
	}
}

func TestAggregateCheck(t *testing.T) {
	c, sim := tinyWire(t, 4, 12)
	drained := c.agg.Records()
	ref := refAggregate(c.exported, sim.GeoIP(), sim.DstMetadata)
	if err := checkAggregates(drained, ref); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	corrupt := func(f func([]features.Record) []features.Record) []features.Record {
		return f(append([]features.Record(nil), drained...))
	}
	for name, bad := range map[string][]features.Record{
		"bytes":     corrupt(func(r []features.Record) []features.Record { r[0].Bytes *= 1.5; return r }),
		"link":      corrupt(func(r []features.Record) []features.Record { r[1].Link++; return r }),
		"metro":     corrupt(func(r []features.Record) []features.Record { r[2].Flow.Loc++; return r }),
		"missing":   corrupt(func(r []features.Record) []features.Record { return r[1:] }),
		"duplicate": corrupt(func(r []features.Record) []features.Record { r[1] = r[0]; return r }),
	} {
		if checkAggregates(bad, ref) == nil {
			t.Errorf("drain with a corrupted %s passed", name)
		}
	}
	if checkSameRecords(drained, drained[1:]) == nil {
		t.Error("record lists of different length compared equal")
	}
}

// skewed corrupts one tuple's answer of a Historical model.
type skewed struct {
	h    *core.Historical
	flow features.FlowFeatures
}

func (s skewed) PredictRaw(q core.Query) []core.Prediction {
	p := s.h.PredictRaw(q)
	if features.SetAP.Project(q.Flow) == features.SetAP.Project(s.flow) && len(p) > 0 {
		p = append([]core.Prediction(nil), p...)
		p[0].Frac *= 0.99
	}
	return p
}

func TestHistSharesCheck(t *testing.T) {
	c, _ := tinyWire(t, 5, 24)
	train := c.agg.Records()
	h := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	if err := checkHistShares(h, features.SetAP, train, 16); err != nil {
		t.Fatalf("trained model: %v", err)
	}
	if checkHistShares(skewed{h, train[len(train)/2].Flow}, features.SetAP, train, 16) == nil {
		t.Error("a model with one skewed share passed")
	}
	half := core.TrainHistorical(features.SetAP, train[:len(train)/2], core.DefaultHistOpts())
	if checkHistShares(half, features.SetAP, train, 16) == nil {
		t.Error("a model trained on half the window passed")
	}
}

func TestAccuracyCheck(t *testing.T) {
	c, sim := tinyWire(t, 6, 48)
	all := c.agg.Records()
	train, test := window(all, 0, 36, nil, 0), window(all, 36, 48, nil, 0)
	m := trainServed(train, sim, sim.Metros(), nil, 0)
	view := newOutageView(train, test, 36, 48, nil, 0)
	for _, outage := range []bool{false, true} {
		var sel func(features.FlowFeatures, wan.Hour) bool
		var excl func(wan.LinkID, wan.Hour) bool
		if outage {
			sel, excl = view.selectOutage, view.exclude
		}
		got := eval.Accuracy(m.model, test, view.options(outage))
		if outage && got[1] == 0 {
			t.Fatal("tiny environment has no outage traffic to score")
		}
		want := refAccuracy(m.model, test, []int{1, 3}, sel, excl)
		if err := checkAccuracy(got, want); err != nil {
			t.Fatalf("outage=%v: %v", outage, err)
		}
		off := map[int]float64{1: got[1] * 1.001, 3: got[3]}
		if checkAccuracy(off, want) == nil {
			t.Errorf("outage=%v: a shifted acc_k1 passed", outage)
		}
		swapped := map[int]float64{1: got[3], 3: got[1]}
		if checkAccuracy(swapped, swapped) == nil {
			t.Errorf("outage=%v: acc_k3 < acc_k1 passed", outage)
		}
	}
	// A different model must not score the same.
	other := core.TrainHistorical(features.SetA, train, core.DefaultHistOpts())
	if checkAccuracy(eval.Accuracy(other, test, view.options(false)), refAccuracy(m.model, test, []int{1, 3}, nil, nil)) == nil {
		t.Error("Hist_A's accuracy passed as the ensemble's")
	}
}

func validResponse(t *testing.T) (*responseJSON, []wan.LinkID) {
	t.Helper()
	body := `{"results":[
		{"flow":0,"model":"ensemble","links":[{"link":4,"frac":0.75,"bytes":75},{"link":5,"frac":0.25,"bytes":25}]},
		{"flow":1,"model":"ensemble","links":[{"link":5,"frac":1,"bytes":10}]}],
		"shifted":{"4":75,"5":35}}`
	var r responseJSON
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	return &r, []wan.LinkID{9}
}

func TestResponseCheck(t *testing.T) {
	r, excl := validResponse(t)
	if err := checkResponse(r, 2, excl); err != nil {
		t.Fatalf("valid response: %v", err)
	}
	for name, corrupt := range map[string]func(*responseJSON) []wan.LinkID{
		"frac above 1":    func(r *responseJSON) []wan.LinkID { r.Results[1].Links[0].Frac = 1.5; return excl },
		"negative frac":   func(r *responseJSON) []wan.LinkID { r.Results[0].Links[1].Frac = -0.1; return excl },
		"sum above 1":     func(r *responseJSON) []wan.LinkID { r.Results[0].Links[1].Frac = 0.5; return excl },
		"excluded link":   func(r *responseJSON) []wan.LinkID { return []wan.LinkID{5} },
		"shifted off":     func(r *responseJSON) []wan.LinkID { r.Shifted[4] = 70; return excl },
		"shifted missing": func(r *responseJSON) []wan.LinkID { delete(r.Shifted, 5); return excl },
		"missing result":  func(r *responseJSON) []wan.LinkID { r.Results = r.Results[:1]; return excl },
	} {
		r, _ := validResponse(t)
		if checkResponse(r, 2, corrupt(r)) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

// TestOfflineCheck holds the offline mirror's answers to themselves
// encoded the way tipsyd encodes them, and shows a changed answer is
// caught.
func TestOfflineCheck(t *testing.T) {
	m := newMirror(2)
	reqs, err := buildRound(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[int]int{}
	for _, req := range reqs {
		kinds[req.kind]++
	}
	if kinds[kindWhatif] != serveWhatifs || kinds[kindLookup] != serveLookups || kinds[kindMalformed] != len(malformedAddrs) {
		t.Fatalf("round has %v requests by kind", kinds)
	}
	again, _ := buildRound(m, 2)
	for i := range reqs {
		if !bytes.Equal(reqs[i].body, again[i].body) {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
	}
	var req request
	for _, r := range reqs {
		if r.kind == kindWhatif {
			req = r
			break
		}
	}
	resp := offlineResponse(m, req)
	if err := checkResponse(resp, len(req.flows), req.exclude); err != nil {
		t.Fatalf("offline answer breaks invariants: %v", err)
	}
	if err := checkOffline(m, req, resp); err != nil {
		t.Fatalf("offline answer vs itself: %v", err)
	}
	resp.Results[0].Links[0].Frac *= 0.5
	if checkOffline(m, req, resp) == nil {
		t.Error("a changed frac passed")
	}
	resp = offlineResponse(m, req)
	resp.Results[0].Model = "geo"
	if checkOffline(m, req, resp) == nil {
		t.Error("a changed rung passed")
	}
}

// offlineResponse builds the /v1/predict answer tipsyd would give
// from the mirror's ladder.
func offlineResponse(m *mirror, req request) *responseJSON {
	excluded := map[wan.LinkID]bool{}
	for _, l := range req.exclude {
		excluded[l] = true
	}
	resp := &responseJSON{Shifted: map[wan.LinkID]float64{}}
	for i := range req.flows {
		f := &req.flows[i]
		ff := features.FlowFeatures{AS: f.SrcAS, Prefix: f.SrcPrefix, Loc: m.sim.GeoIP().Lookup(f.SrcPrefix),
			Region: f.DstRegion, Type: f.DstType}
		preds, rung := m.ladder(core.Query{Flow: ff, K: 3, Exclude: func(l wan.LinkID) bool { return excluded[l] }})
		var res struct {
			Flow  int    `json:"flow"`
			Model string `json:"model"`
			Links []struct {
				Link  wan.LinkID `json:"link"`
				Frac  float64    `json:"frac"`
				Bytes float64    `json:"bytes"`
			} `json:"links"`
		}
		res.Flow, res.Model = i, rung
		b := flowOf(f).Bytes
		for _, p := range preds {
			res.Links = append(res.Links, struct {
				Link  wan.LinkID `json:"link"`
				Frac  float64    `json:"frac"`
				Bytes float64    `json:"bytes"`
			}{p.Link, p.Frac, p.Frac * b})
			resp.Shifted[p.Link] += p.Frac * b
		}
		resp.Results = append(resp.Results, res)
	}
	return resp
}

// TestScrapeP50 parses the registry's own exposition format and takes
// the median of the observations made between two scrapes.
func TestScrapeP50(t *testing.T) {
	reg := obsv.NewRegistry()
	h := reg.Histogram("x_ns")
	c := reg.Counter("y_total")
	serve := func() *scrape {
		var buf bytes.Buffer
		reg.WriteText(&buf)
		s, err := parseMetrics(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < 100; i++ {
		h.Observe(100_000) // bucket [65536, 131072)
	}
	before := serve()
	for i := 0; i < 100; i++ {
		h.Observe(1_000) // bucket [512, 1024)
		c.Inc()
	}
	after := serve()
	p50 := histP50(before, after, "x_ns")
	if p50 < 512 || p50 >= 1024 {
		t.Errorf("p50 of the delta = %v, want within [512, 1024)", p50)
	}
	if d := after.scalars["y_total"] - before.scalars["y_total"]; d != 100 {
		t.Errorf("counter delta = %v, want 100", d)
	}
	if after.scalars["x_ns_sum"]-before.scalars["x_ns_sum"] != 100_000 {
		t.Errorf("histogram sum delta = %v", after.scalars["x_ns_sum"]-before.scalars["x_ns_sum"])
	}
}
