package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/serve"
)

// readSpec describes a read phase: two closed-loop clients, each cycling
// through its own fixed list of /batch requests.
type readSpec struct {
	kinds     []serve.Kind
	zipf      bool // hot-pair Zipf endpoints instead of uniform ones
	batch     int  // queries per /batch request
	perClient int  // batches in each client's list
}

// churnSpec describes a churn phase: one client running sequential steps
// of update, conn batch, bicc batch. The first step is warm-up.
type churnSpec struct {
	adds     int  // edges added per step; the previous step's adds are removed
	batch    int  // queries in each of the step's two batches
	minSteps int  // timed steps run at least; exact counts cover these
	durable  bool // run on an oracled -datadir
}

// workload is one benchmark workload. Read workloads time a read phase on
// the set-up graph and then run a churn phase on a small in-memory side
// tenant (the probe); churn_fresh runs its churn phase on the set-up graph.
//
// The graphs are fixed, like a benchmark's dataset: the structure of one
// random 4096-vertex graph alone moves bicc reads per query by a third, so
// a graph drawn per seed would drown what the benchmark exists to detect.
// The seed drives everything sent to them: query streams, hot-pair tables
// and update steps.
type workload struct {
	name  string
	gen   func() *graph.Graph
	read  *readSpec
	churn churnSpec
	probe func() *graph.Graph // nil for churn_fresh
}

// graphSeed generates every workload graph.
const graphSeed = 1

// sizes scales the workloads; the tiny sizes serve the package's tests.
type sizes struct {
	connN, powerN, churnN, probeN int
	perClient                     int
	probeSteps, churnSteps        int // minimum timed steps
	setups                        int
}

var fullSizes = sizes{connN: 65536, powerN: 8192, churnN: 4096, probeN: 1024, perClient: 256, probeSteps: 110, churnSteps: 150, setups: 3}

var tinySizes = sizes{connN: 2048, powerN: 256, churnN: 256, probeN: 128, perClient: 8, probeSteps: 12, churnSteps: 12, setups: 2}

var (
	connKinds = []serve.Kind{serve.KindConnected, serve.KindComponent}
	biccKinds = []serve.Kind{serve.KindBridge, serve.KindArticulation, serve.KindBiconnected, serve.KindTwoEdgeConnected}
)

func workloads(sz sizes) []workload {
	probe := func() *graph.Graph { return graph.RandomRegular(sz.probeN, 3, graphSeed) }
	probeChurn := churnSpec{adds: 8, batch: 64, minSteps: sz.probeSteps}
	return []workload{
		{
			name:  "conn_uniform",
			gen:   func() *graph.Graph { return graph.RandomRegular(sz.connN, 3, graphSeed) },
			read:  &readSpec{kinds: connKinds, batch: 256, perClient: sz.perClient},
			churn: probeChurn,
			probe: probe,
		},
		{
			name: "bicc_skewed",
			gen: func() *graph.Graph {
				return graph.BoundDegree(graph.PowerLaw(sz.powerN, 4, graphSeed), 3).G
			},
			read:  &readSpec{kinds: biccKinds, zipf: true, batch: 256, perClient: sz.perClient},
			churn: probeChurn,
			probe: probe,
		},
		{
			name:  "churn_fresh",
			gen:   func() *graph.Graph { return graph.RandomRegular(sz.churnN, 3, graphSeed) },
			churn: churnSpec{adds: 8, batch: 64, minSteps: sz.churnSteps, durable: true},
		},
	}
}

func findWorkload(sz sizes, name string) (workload, error) {
	var names []string
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// batch is one pre-encoded /batch request.
type batch struct {
	qs   []serve.Query
	body []byte
}

// step is one churn step's pre-encoded requests.
type step struct {
	add, remove [][2]int32
	update      []byte
	conn, bicc  batch
}

// churnInputs is a churn phase's graph and its steps.
type churnInputs struct {
	g     *graph.Graph
	base  [][2]int32
	steps []step
}

// inputs is everything a workload run sends, generated from its seed.
type inputs struct {
	g       *graph.Graph
	graphio string
	clients [][]batch    // read workloads: one list per client
	churn   *churnInputs // on g for churn_fresh, on the probe graph otherwise
}

// Seed mixes keep the graph, query and churn streams independent.
const (
	querySeedMix = 0x51bf3c
	churnSeedMix = 0x7c15a9
)

func makeInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{g: w.gen()}
	text, err := graphioText(in.g)
	if err != nil {
		return nil, err
	}
	in.graphio = text
	if w.read != nil {
		in.clients = readBatches(in.g, *w.read, seed^querySeedMix)
		in.churn = churnSteps(w.probe(), w.churn, seed^churnSeedMix)
	} else {
		in.churn = churnSteps(in.g, w.churn, seed^churnSeedMix)
	}
	return in, nil
}

func graphioText(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		return "", fmt.Errorf("encode graph: %w", err)
	}
	return buf.String(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded here
	}
	return b
}

func encodeBatch(qs []serve.Query) batch {
	return batch{qs: qs, body: mustJSON(serve.BatchRequest{Queries: qs})}
}

// zipfWeights is the prefix sum of the rank weights 1/rank^1.2.
func zipfWeights(n int) []float64 {
	prefix := make([]float64, n)
	sum := 0.0
	for i := range prefix {
		sum += 1 / math.Pow(float64(i+1), 1.2)
		prefix[i] = sum
	}
	return prefix
}

// zipfRank draws a rank under the weights.
func zipfRank(rng *graph.RNG, prefix []float64) int {
	i := sort.SearchFloat64s(prefix, rng.Float64()*prefix[len(prefix)-1])
	return min(i, len(prefix)-1)
}

// The skewed stream draws each batch from one of hotSets independent hot
// sets in turn, each a table of hotSetSize pairs (and as many edges, for
// bridge queries) ranked under Zipf(1.2). A single set puts half of all
// queries on its ten top pairs, so the stream's cost per query would be
// the cost of ten random pairs; 8 sets average that over 80 and still send
// about half of the result-cache lookups to a hit.
const (
	hotSets    = 8
	hotSetSize = 8192
)

type hotSet struct{ pairs, edges [][2]int32 }

// distinctPair draws u != v uniformly.
func distinctPair(rng *graph.RNG, n int) [2]int32 {
	u := int32(rng.Intn(n))
	v := int32(rng.Intn(n - 1))
	if v >= u {
		v++
	}
	return [2]int32{u, v}
}

func readBatches(g *graph.Graph, rs readSpec, seed uint64) [][]batch {
	rng := graph.NewRNG(seed)
	n := g.N()
	var sets []hotSet
	var prefix []float64
	if rs.zipf {
		size := min(n, hotSetSize)
		prefix = zipfWeights(size)
		all := g.Edges()
		sets = make([]hotSet, hotSets)
		for i := range sets {
			sets[i] = hotSet{pairs: make([][2]int32, size), edges: make([][2]int32, size)}
			for j := range size {
				sets[i].pairs[j] = distinctPair(rng, n)
				sets[i].edges[j] = all[rng.Intn(len(all))]
			}
		}
	}
	clients := make([][]batch, 2)
	for c := range clients {
		for j := range rs.perClient {
			var hs hotSet
			if rs.zipf {
				hs = sets[(c*rs.perClient+j)%hotSets]
			}
			qs := make([]serve.Query, rs.batch)
			for i := range qs {
				kind := rs.kinds[rng.Intn(len(rs.kinds))]
				var p [2]int32
				switch {
				case !rs.zipf:
					p = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
				case kind == serve.KindBridge:
					p = hs.edges[zipfRank(rng, prefix)]
				default:
					p = hs.pairs[zipfRank(rng, prefix)]
				}
				qs[i] = serve.Query{Kind: kind, U: p[0], V: p[1]}
			}
			clients[c] = append(clients[c], encodeBatch(qs))
		}
	}
	return clients
}

// churnSteps generates enough steps for the timed window: the warm-up step
// plus four times the minimum, so a fast host still has steps to run.
func churnSteps(g *graph.Graph, cs churnSpec, seed uint64) *churnInputs {
	rng := graph.NewRNG(seed)
	n := g.N()
	ci := &churnInputs{g: g, base: g.Edges()}
	var prev [][2]int32
	for range 1 + 4*cs.minSteps {
		add := make([][2]int32, cs.adds)
		for i := range add {
			add[i] = distinctPair(rng, n)
		}
		st := step{add: add, remove: prev}
		st.update = mustJSON(serve.UpdateRequest{Add: add, Remove: prev, Wait: true})
		cq := make([]serve.Query, cs.batch)
		for i := range cq {
			cq[i] = serve.Query{Kind: connKinds[rng.Intn(2)], U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		bq := make([]serve.Query, cs.batch)
		for i := range bq {
			kind := biccKinds[rng.Intn(len(biccKinds))]
			p := distinctPair(rng, n)
			if kind == serve.KindBridge {
				if j := rng.Intn(len(ci.base) + len(add)); j < len(ci.base) {
					p = ci.base[j]
				} else {
					p = add[j-len(ci.base)]
				}
			}
			bq[i] = serve.Query{Kind: kind, U: p[0], V: p[1]}
		}
		st.conn, st.bicc = encodeBatch(cq), encodeBatch(bq)
		ci.steps = append(ci.steps, st)
		prev = add
	}
	return ci
}

// graphAt is the graph after step s: the base edges plus the step's adds.
func (ci *churnInputs) graphAt(s int) *graph.Graph {
	edges := append(append([][2]int32(nil), ci.base...), ci.steps[s].add...)
	return graph.FromEdges(ci.g.N(), edges)
}
