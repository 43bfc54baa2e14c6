package main

import (
	"encoding/json"

	"repro/internal/bicc"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/unionfind"
)

// checker verifies answers against from-scratch references of one graph:
// unionfind.Ref for connectivity and bicc.Ref for biconnectivity. Component
// labels are opaque, so a label is correct when labels and reference
// components correspond one to one across every answer the checker sees
// (labels are canonical within one epoch).
type checker struct {
	comp        []int32
	br          *bicc.Ref
	labelToComp map[int32]int32
	compToLabel map[int32]int32
}

func newChecker(g *graph.Graph) *checker {
	uf := unionfind.NewRef(g.N())
	for _, e := range g.Edges() {
		uf.Union(e[0], e[1])
	}
	c := &checker{
		comp:        make([]int32, g.N()),
		labelToComp: map[int32]int32{},
		compToLabel: map[int32]int32{},
	}
	for v := range c.comp {
		c.comp[v] = uf.Find(int32(v))
	}
	c.br = bicc.NewRef(g)
	return c
}

func (c *checker) ok(q serve.Query, a serve.Result) bool {
	if a.Err != "" {
		return false
	}
	if q.Kind == serve.KindComponent {
		if a.Label == nil {
			return false
		}
		comp, l := c.comp[q.U], *a.Label
		if want, seen := c.labelToComp[l]; seen && want != comp {
			return false
		}
		if want, seen := c.compToLabel[comp]; seen && want != l {
			return false
		}
		c.labelToComp[l], c.compToLabel[comp] = comp, l
		return true
	}
	if a.Bool == nil {
		return false
	}
	var want bool
	switch q.Kind {
	case serve.KindConnected:
		want = c.comp[q.U] == c.comp[q.V]
	case serve.KindBridge:
		want = c.br.IsBridge(q.U, q.V)
	case serve.KindArticulation:
		want = c.br.IsArticulation[q.U]
	case serve.KindBiconnected:
		want = q.U == q.V || c.br.SameBCC(q.U, q.V)
	case serve.KindTwoEdgeConnected:
		want = c.br.TwoEdgeCC[q.U] == c.br.TwoEdgeCC[q.V]
	default:
		return false
	}
	return *a.Bool == want
}

// response is one /batch reply kept for checking after the timed window.
type response struct {
	status int
	body   []byte
}

// checkBatch decodes a /batch reply and counts its wrong answers; a non-2xx
// status or an undecodable body fails every query of the batch.
func (c *checker) checkBatch(b batch, r response) (failed int) {
	if r.status/100 != 2 {
		return len(b.qs)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return len(b.qs)
	}
	return c.checkAll(b, resp.Results)
}

// checkAll counts the wrong answers of a batch's results; a result count
// that does not match fails every query.
func (c *checker) checkAll(b batch, res []serve.Result) (failed int) {
	if len(res) != len(b.qs) {
		return len(b.qs)
	}
	for i, q := range b.qs {
		if !c.ok(q, res[i]) {
			failed++
		}
	}
	return failed
}
