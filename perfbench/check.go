package main

// Reference checks. Each recomputes a program output from the
// program's inputs by its own route — never from a stored copy of an
// earlier output — and reports the first disagreement as an error.

import (
	"fmt"
	"math"
	"sort"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/pipeline"
	"tipsy/internal/wan"
)

// checkWireLoss asserts that the collector handed on exactly the
// records the exporter was given, in order, and counted no loss or
// quarantined input.
func checkWireLoss(exported, decoded []ipfix.FlowRecord, st ipfix.CollectorStats) error {
	if st.Lost != 0 || st.Quarantined != 0 {
		return fmt.Errorf("collector lost %d and quarantined %d", st.Lost, st.Quarantined)
	}
	if len(decoded) != len(exported) || st.Records != uint64(len(exported)) {
		return fmt.Errorf("exported %d records, decoded %d (collector counted %d)",
			len(exported), len(decoded), st.Records)
	}
	for i := range exported {
		if exported[i] != decoded[i] {
			return fmt.Errorf("record %d: exported %+v, decoded %+v", i, exported[i], decoded[i])
		}
	}
	return nil
}

// aggKey is the unit of aggregation: one hour, one flow aggregate
// (source AS, /24, Geo-IP metro, destination region and type) and one
// ingress link.
type aggKey struct {
	hour wan.Hour
	flow features.FlowFeatures
	link wan.LinkID
}

// refAggregate sums the octets of flow records per aggKey, joining
// each record's /24 to its Geo-IP metro and its destination to its
// region and service type. Records with no destination metadata are
// dropped, as the pipeline drops them.
func refAggregate(recs []ipfix.FlowRecord, geoip *geo.GeoIP, meta pipeline.Metadata) map[aggKey]float64 {
	out := make(map[aggKey]float64)
	for _, r := range recs {
		region, svc, ok := meta(r.DstAddr)
		if !ok {
			continue
		}
		p := bgp.Slash24(r.SrcAddr)
		k := aggKey{
			hour: wan.Hour(r.StartSecs / 3600),
			flow: features.FlowFeatures{AS: bgp.ASN(r.SrcAS), Prefix: p, Loc: geoip.Lookup(p), Region: region, Type: svc},
			link: wan.LinkID(r.Ingress),
		}
		out[k] += float64(r.Octets)
	}
	return out
}

// checkAggregates asserts that drained records are exactly the
// reference aggregation: the same keys, each once, with the same byte
// totals. Both sums add the same records in the same order, so the
// totals must agree to the bit.
func checkAggregates(drained []features.Record, ref map[aggKey]float64) error {
	if len(drained) != len(ref) {
		return fmt.Errorf("drained %d aggregates, reference has %d", len(drained), len(ref))
	}
	seen := make(map[aggKey]bool, len(drained))
	for _, r := range drained {
		k := aggKey{r.Hour, r.Flow, r.Link}
		if seen[k] {
			return fmt.Errorf("aggregate %+v drained twice", k)
		}
		seen[k] = true
		want, ok := ref[k]
		if !ok {
			return fmt.Errorf("drained aggregate %+v not in reference", k)
		}
		if r.Bytes != want {
			return fmt.Errorf("aggregate %+v: drained %v bytes, reference %v", k, r.Bytes, want)
		}
	}
	return nil
}

// checkSameRecords asserts two drained record lists are identical.
func checkSameRecords(a, b []features.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// rawPredictor is the part of core.Historical the share check reads.
type rawPredictor interface {
	PredictRaw(core.Query) []core.Prediction
}

// checkHistShares asserts that a Historical model over set answers
// PredictRaw with p(l|f) = B(f,l)/B(f) over the training records
// (§3.3.1): for every tuple, its maxLinks largest links by training
// bytes (ties to the lower link ID), each with its share of the
// tuple's bytes.
func checkHistShares(h rawPredictor, set features.Set, train []features.Record, maxLinks int) error {
	type tl struct {
		t features.Tuple
		l wan.LinkID
	}
	bytes := make(map[tl]float64)
	total := make(map[features.Tuple]float64)
	example := make(map[features.Tuple]features.FlowFeatures)
	for _, r := range train {
		if r.Bytes <= 0 {
			continue
		}
		t := set.Project(r.Flow)
		bytes[tl{t, r.Link}] += r.Bytes
		total[t] += r.Bytes
		if _, ok := example[t]; !ok {
			example[t] = r.Flow
		}
	}
	links := make(map[features.Tuple][]core.Prediction, len(total))
	for k, b := range bytes {
		links[k.t] = append(links[k.t], core.Prediction{Link: k.l, Frac: b})
	}
	for t, want := range links {
		sort.Slice(want, func(i, j int) bool {
			if want[i].Frac != want[j].Frac {
				return want[i].Frac > want[j].Frac
			}
			return want[i].Link < want[j].Link
		})
		if len(want) > maxLinks {
			want = want[:maxLinks]
		}
		got := h.PredictRaw(core.Query{Flow: example[t]})
		if len(got) != len(want) {
			return fmt.Errorf("tuple %v: model has %d links, training data %d", t, len(got), len(want))
		}
		for i := range want {
			share := want[i].Frac / total[t]
			if got[i].Link != want[i].Link || !near(got[i].Frac, share, 1e-12) {
				return fmt.Errorf("tuple %v rank %d: model says link %d at %v, training data link %d at %v",
					t, i, got[i].Link, got[i].Frac, want[i].Link, share)
			}
		}
	}
	return nil
}

// refAccuracy is the §5.1.2 byte-weighted top-k accuracy computed from
// scratch: records are grouped per flow aggregate over the selected
// flow-hours; each group is asked for its top max(ks) links, with a
// link excluded when it is down in more than half of the group's
// hours; a group earns Σ min(frac·total, actual) over its first k
// answers, and accuracy is earned over total bytes. A nil sel keeps
// every flow-hour; a nil excl excludes nothing.
func refAccuracy(model core.Predictor, test []features.Record, ks []int,
	sel func(features.FlowFeatures, wan.Hour) bool, excl func(wan.LinkID, wan.Hour) bool) map[int]float64 {
	type group struct {
		links map[wan.LinkID]float64
		hours map[wan.Hour]bool
		total float64
	}
	groups := make(map[features.FlowFeatures]*group)
	for _, r := range test {
		if sel != nil && !sel(r.Flow, r.Hour) {
			continue
		}
		g := groups[r.Flow]
		if g == nil {
			g = &group{links: map[wan.LinkID]float64{}, hours: map[wan.Hour]bool{}}
			groups[r.Flow] = g
		}
		g.links[r.Link] += r.Bytes
		g.hours[r.Hour] = true
		g.total += r.Bytes
	}
	maxK := 0
	for _, k := range ks {
		maxK = max(maxK, k)
	}
	earned := make(map[int]float64)
	var total float64
	for f, g := range groups {
		total += g.total
		q := core.Query{Flow: f, K: maxK}
		if excl != nil {
			q.Exclude = func(l wan.LinkID) bool {
				down := 0
				for h := range g.hours {
					if excl(l, h) {
						down++
					}
				}
				return 2*down > len(g.hours)
			}
		}
		preds := model.Predict(q)
		for _, k := range ks {
			for i, p := range preds {
				if i == k {
					break
				}
				earned[k] += math.Min(p.Frac*g.total, g.links[p.Link])
			}
		}
	}
	out := make(map[int]float64)
	for _, k := range ks {
		if total > 0 {
			out[k] = earned[k] / total
		}
	}
	return out
}

// checkAccuracy asserts reported accuracies match the reference
// (summation order differs, so to 1e-9) and that accuracy does not
// fall from k=1 to k=3.
func checkAccuracy(got, want map[int]float64) error {
	for _, k := range []int{1, 3} {
		if !near(got[k], want[k], 1e-9) {
			return fmt.Errorf("acc_k%d = %v, reference %v", k, got[k], want[k])
		}
	}
	if got[3] < got[1] {
		return fmt.Errorf("acc_k3 %v < acc_k1 %v", got[3], got[1])
	}
	return nil
}

// near reports whether a and b agree to within rel relative error.
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}
