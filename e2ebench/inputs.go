package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/ingest"
	"simrankpp/internal/workload"
)

// Input sizes. Every seed draws a graph of the same shape: equal-sized
// clusters (markets), each one connected component of queries and ads,
// plus a tail of tiny components. Equal clusters keep the cost of
// refreshing one cluster alike across seeds.
const (
	genClusters       = 24
	genClusterQueries = 260
	genClusterAds     = 200
	genTailComponents = 320
	genBidShare       = 0.6 // queries that carry a bid
	genReadOps        = 1 << 17
	genBatchQueries   = 8
	genChurnClusters  = 3 // clusters the day-1 graph changes
)

// Traffic shapes. The power-law exponents are internal/workload's
// defaults, which model the shapes the paper reports for its click logs:
// query traffic (and, here, ad traffic and market traffic) follows
// Zipf(PopularityExponent), ads per query Zipf(AdCountExponent), and
// queries per ad Zipf(QueryCountExponent), through an ad's popularity
// inside its cluster.
var genShape = workload.DefaultUniverseConfig()

// The numbers below are assumptions, not measurements: neither the
// paper nor the repository gives a request mix, a miss share or an
// ingest rate. Each is chosen for what it exercises.
const (
	// genMaxAdsPerQuery caps the ads-per-query power law; at 12 a query
	// draws 3.6 ads on average (about 3.2 distinct), which sizes a build
	// at about a second and a half on two cores.
	genMaxAdsPerQuery = 12
	// genMissingShare of the read universe is queries the graph lacks:
	// enough 404s to keep the miss path in the mix.
	genMissingShare = 0.10
	// The read mix: mostly /rewrite, with enough /similar on each side
	// and /batch for each to report a tail percentile.
	mixRewrite, mixSimilarQ, mixSimilarAd = 0.80, 0.07, 0.07 // the rest is /batch
	// ingestBatchesPerS batches of ingestBatchRecords records: a few
	// batches a second with tens of records, slow enough that a fold
	// usually holds one batch, so visibility measures fold work.
	ingestBatchesPerS  = 3.0
	ingestBatchRecords = 16
)

// newZipf is workload.NewZipf for parameters known to be valid. Its
// samples are ranks in [1, n]; the generator indexes with rank-1.
func newZipf(n int, exponent float64) *workload.Zipf {
	z, err := workload.NewZipf(n, exponent)
	if err != nil {
		panic(err) // n >= 1 and the exponents are non-negative constants
	}
	return z
}

// opKind is one kind of read request.
type opKind int

const (
	opRewrite opKind = iota
	opSimilarQ
	opSimilarAd
	opBatch
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"rewrite", "similar_q", "similar_ad", "batch"}[k]
}

// readOp is one scheduled read. want404 marks a lookup whose subject is
// not in the graph: 404 is then its correct answer.
type readOp struct {
	kind    opKind
	subject string   // query or ad
	batch   []string // opBatch only
	want404 bool
	batchIn []bool // opBatch only: which queries are in the graph
}

// ingestBatch is one scheduled POST /ingest.
type ingestBatch struct {
	due     time.Duration // offset from the start of the schedule
	probe   string        // never-seen query this batch introduces
	body    []byte
	records int
}

// inputs is everything a workload needs, generated from one seed. The
// daemons see only the files and the requests built from it.
type inputs struct {
	basePath, day1Path, bidsPath string
	base, day1                   *clickgraph.Graph
	bids                         map[string]bool
	reads                        []readOp
	batches                      []ingestBatch
	genSeconds                   float64
}

// generate writes the inputs for seed into dir. seconds sizes the ingest
// schedule.
func generate(seed uint64, dir string, seconds int) (*inputs, error) {
	t0 := time.Now()
	rng := workload.NewRNG(seed)
	in := &inputs{
		basePath: filepath.Join(dir, "base.graph"),
		day1Path: filepath.Join(dir, "day1.graph"),
		bidsPath: filepath.Join(dir, "bids.txt"),
	}
	w := newWorld(rng)
	base := w.graph(nil, nil)
	// The daemons read the graph files, so the in-memory graphs are the
	// files read back: same interned ids as every process sees.
	var err error
	if in.base, err = writeGraph(in.basePath, base); err != nil {
		return nil, err
	}
	if in.day1, err = writeGraph(in.day1Path, w.graph(w.churn(rng))); err != nil {
		return nil, err
	}
	in.bids = make(map[string]bool)
	for _, q := range in.base.Queries() {
		if rng.Float64() < genBidShare {
			in.bids[q] = true
		}
	}
	if err := writeBids(in.bidsPath, in.bids); err != nil {
		return nil, err
	}
	in.reads = w.readSchedule(rng, in.base)
	in.batches = w.ingestSchedule(rng, seed, seconds)
	in.genSeconds = time.Since(t0).Seconds()
	return in, nil
}

// world is the generator's latent structure: clusters of queries and
// ads with Zipf popularity inside each cluster and across clusters.
type world struct {
	clusters []cluster
	tail     []edge
	clusterW *workload.Zipf // cluster (market) popularity
}

type cluster struct {
	queries, ads []string
	edges        []edge
	adPop        *workload.Zipf // ad popularity: queries per ad
}

type edge struct {
	q, ad string
	w     clickgraph.EdgeWeights
}

func newWorld(rng *workload.RNG) *world {
	w := &world{}
	vocab := syllableWords(rng, 4000)
	used := make(map[string]bool)
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	adsPerQuery := newZipf(genMaxAdsPerQuery, genShape.AdCountExponent)
	for c := 0; c < genClusters; c++ {
		nq, na := genClusterQueries, genClusterAds
		cl := cluster{}
		stem := []string{word(), word(), word()}
		for len(cl.queries) < nq {
			q := stem[rng.Intn(len(stem))] + " " + word()
			if rng.Intn(3) == 0 {
				q += " " + word()
			}
			if !used[q] {
				used[q] = true
				cl.queries = append(cl.queries, q)
			}
		}
		for a := 0; a < na; a++ {
			cl.ads = append(cl.ads, fmt.Sprintf("ad-%d-%d", c, a))
		}
		cl.adPop = newZipf(na, genShape.QueryCountExponent)
		linked := make([]bool, na)
		degrees := workload.DegreeSequence(rng, adsPerQuery, len(cl.queries))
		for i, q := range cl.queries {
			// Every query clicks the cluster's top ad, which keeps the
			// cluster one component.
			seen := map[int]bool{}
			for d := 0; d < degrees[i]; d++ {
				a := 0
				if d > 0 {
					a = cl.adPop.Sample(rng) - 1
				}
				if seen[a] {
					continue
				}
				seen[a], linked[a] = true, true
				cl.edges = append(cl.edges, edge{q, cl.ads[a], randomWeights(rng)})
			}
		}
		// Every ad gets a click: an isolated node would be written ahead
		// of the edges and shift the ids the file round trip assigns.
		for a := range cl.ads {
			if !linked[a] {
				q := cl.queries[rng.Intn(len(cl.queries))]
				cl.edges = append(cl.edges, edge{q, cl.ads[a], randomWeights(rng)})
			}
		}
		w.clusters = append(w.clusters, cl)
	}
	for t := 0; t < genTailComponents; t++ {
		nq, na := 1+rng.Intn(3), 1+rng.Intn(2)
		for i := 0; i < nq; i++ {
			q := fmt.Sprintf("%s %s tail%d", word(), word(), t)
			for j := 0; j < na; j++ {
				w.tail = append(w.tail, edge{q, fmt.Sprintf("ad-tail-%d-%d", t, j), randomWeights(rng)})
			}
		}
	}
	w.clusterW = newZipf(genClusters, genShape.PopularityExponent)
	return w
}

// churn returns the day-1 changes: in genChurnClusters clusters, weights
// move on a share of the edges and a few new queries click the
// cluster's ads; every other cluster is unchanged. Existing nodes keep
// their order of first appearance in the graph file, so the file round
// trip gives them the same ids on both days.
func (w *world) churn(rng *workload.RNG) (map[int][]edge, []edge) {
	override := make(map[int][]edge)
	var added []edge
	for len(override) < genChurnClusters {
		c := rng.Intn(len(w.clusters))
		if _, ok := override[c]; ok {
			continue
		}
		cl := w.clusters[c]
		next := make([]edge, 0, len(cl.edges))
		for _, e := range cl.edges {
			if rng.Float64() < 0.3 {
				e.w = randomWeights(rng)
			}
			next = append(next, e)
		}
		override[c] = next
		for i := 0; i < len(cl.queries)/20; i++ {
			q := fmt.Sprintf("new query %d %d", c, i)
			for d := 0; d < 1+rng.Intn(3); d++ {
				added = append(added, edge{q, cl.ads[cl.adPop.Sample(rng)-1], randomWeights(rng)})
			}
		}
	}
	return override, added
}

// graph builds the click graph, replacing the edges of the clusters in
// override and appending added last.
func (w *world) graph(override map[int][]edge, added []edge) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	add := func(es []edge) {
		for _, e := range es {
			if err := b.AddEdge(e.q, e.ad, e.w); err != nil {
				panic(err) // randomWeights only makes valid weights
			}
		}
	}
	for c, cl := range w.clusters {
		if es, ok := override[c]; ok {
			add(es)
		} else {
			add(cl.edges)
		}
	}
	add(w.tail)
	add(added)
	return b.Build()
}

// readSchedule draws the read mix: mostly /rewrite, with /similar on
// both sides and 8-query /batch. Queries follow Zipf popularity over a
// universe that includes genMissingShare queries the graph lacks.
func (w *world) readSchedule(rng *workload.RNG, g *clickgraph.Graph) []readOp {
	universe := append([]string(nil), g.Queries()...)
	nMissing := int(float64(len(universe)) * genMissingShare)
	for i := 0; i < nMissing; i++ {
		universe = append(universe, fmt.Sprintf("unseen query %d", i))
	}
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	qPop := newZipf(len(universe), genShape.PopularityExponent)
	ads := append([]string(nil), g.Ads()...)
	rng.Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
	aPop := newZipf(len(ads), genShape.PopularityExponent)
	inGraph := func(q string) bool { _, ok := g.QueryID(q); return ok }

	ops := make([]readOp, genReadOps)
	for i := range ops {
		r := rng.Float64()
		switch {
		case r < mixRewrite:
			q := universe[qPop.Sample(rng)-1]
			ops[i] = readOp{kind: opRewrite, subject: q, want404: !inGraph(q)}
		case r < mixRewrite+mixSimilarQ:
			q := universe[qPop.Sample(rng)-1]
			ops[i] = readOp{kind: opSimilarQ, subject: q, want404: !inGraph(q)}
		case r < mixRewrite+mixSimilarQ+mixSimilarAd:
			ops[i] = readOp{kind: opSimilarAd, subject: ads[aPop.Sample(rng)-1]}
		default:
			op := readOp{kind: opBatch}
			for j := 0; j < genBatchQueries; j++ {
				q := universe[qPop.Sample(rng)-1]
				op.batch = append(op.batch, q)
				op.batchIn = append(op.batchIn, inGraph(q))
			}
			ops[i] = op
		}
	}
	return ops
}

// ingestSchedule draws the click batches: ingestBatchesPerS a second.
// A batch is one market's clicks: a cluster drawn by popularity,
// ingestBatchRecords observations on its edges (popular ads have more
// edges, so they draw more), and one record for a never-seen probe
// query on one of its popular ads.
func (w *world) ingestSchedule(rng *workload.RNG, seed uint64, seconds int) []ingestBatch {
	n := int(math.Ceil(float64(seconds) * ingestBatchesPerS))
	out := make([]ingestBatch, n)
	for i := range out {
		cl := &w.clusters[w.clusterW.Sample(rng)-1]
		var sb strings.Builder
		for r := 0; r < ingestBatchRecords; r++ {
			e := cl.edges[rng.Intn(len(cl.edges))]
			sb.WriteString(ingest.FormatRecord(smallRecord(rng, e.q, e.ad)))
			sb.WriteByte('\n')
		}
		probe := fmt.Sprintf("probe %d %d", seed, i)
		sb.WriteString(ingest.FormatRecord(smallRecord(rng, probe, cl.ads[cl.adPop.Sample(rng)-1])))
		sb.WriteByte('\n')
		out[i] = ingestBatch{
			due:     time.Duration(float64(i) / ingestBatchesPerS * float64(time.Second)),
			probe:   probe,
			body:    []byte(sb.String()),
			records: ingestBatchRecords + 1,
		}
	}
	return out
}

func smallRecord(rng *workload.RNG, q, ad string) ingest.Record {
	imp := int64(1 + rng.Intn(200))
	clicks := int64(rng.Intn(int(imp/4 + 1)))
	return ingest.Record{Query: q, Ad: ad, Impressions: imp, Clicks: clicks,
		Rate: float64(clicks) / float64(imp)}
}

// randomWeights draws an edge's counts: impressions log-uniform over
// ~7..~8000 (a power law of exponent 1, an assumption) and a click rate
// up to a fifth.
func randomWeights(rng *workload.RNG) clickgraph.EdgeWeights {
	imp := int64(math.Exp(2 + rng.Float64()*7))
	clicks := 1 + int64(rng.Intn(int(imp/5+1)))
	if clicks > imp {
		clicks = imp
	}
	rate := float64(clicks) / float64(imp) * (0.7 + 0.6*rng.Float64())
	if rate > 1 {
		rate = 1
	}
	return clickgraph.EdgeWeights{Impressions: imp, Clicks: clicks, ExpectedClickRate: rate}
}

// syllableWords makes n distinct pronounceable words.
func syllableWords(rng *workload.RNG, n int) []string {
	cons, vow := "bdfgklmnprstvz", "aeiou"
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var sb strings.Builder
		for s := 0; s < 2+rng.Intn(2); s++ {
			sb.WriteByte(cons[rng.Intn(len(cons))])
			sb.WriteByte(vow[rng.Intn(len(vow))])
		}
		if w := sb.String(); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// writeGraph writes g to path and returns the file read back.
func writeGraph(path string, g *clickgraph.Graph) (*clickgraph.Graph, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := clickgraph.Write(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if f, err = os.Open(path); err != nil {
		return nil, err
	}
	defer f.Close()
	return clickgraph.Read(f)
}

func writeBids(path string, bids map[string]bool) error {
	terms := make([]string, 0, len(bids))
	for t := range bids {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, t := range terms {
		bw.WriteString(t)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sizes is the input-size block of the environment record.
func (in *inputs) sizes() map[string]any {
	return map[string]any{
		"queries": in.base.NumQueries(), "ads": in.base.NumAds(), "edges": in.base.NumEdges(),
		"day1_edges": in.day1.NumEdges(), "bid_terms": len(in.bids),
		"read_ops": len(in.reads), "ingest_batches": len(in.batches),
		"generate_s": in.genSeconds,
	}
}
