package cuts

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/simplex"
)

// fuzzReader decodes primitive values from a fuzz byte stream, cycling
// from the start when exhausted (so short inputs still build complete
// structures deterministically).
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.byte()) % n
}

// float64 decodes raw IEEE bits: NaN, ±Inf and subnormals all reachable.
func (r *fuzzReader) float64() float64 {
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// smallFloat decodes a bounded "plausible tableau" value in roughly
// [−8, 8] with quarter steps, occasionally nudged near an integer so
// the near-integral branches of the derivation get exercised.
func (r *fuzzReader) smallFloat() float64 {
	v := float64(int(r.byte())%65-32) / 4
	if r.byte()%8 == 0 {
		v = math.Round(v) + float64(int(r.byte())%3-1)*1e-10
	}
	return v
}

// FuzzGomoryRow drives gomoryFromRow with arbitrary tableau rows —
// malformed coefficients (NaN, ±Inf), near-integral bases, inverted
// and infinite bounds — and asserts it never panics and that any cut
// surviving finish() has finite coefficients, a finite RHS and a
// strictly positive normalized violation.
func FuzzGomoryRow(f *testing.F) {
	f.Add([]byte{3, 1, 7, 128, 64, 33, 5, 250, 17, 90, 2, 0, 255, 8, 8, 8})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 3, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 127, 63, 31, 15, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(5)
		nr := 1 + r.intn(3)
		nTot := n + nr
		in := &gmiRow{
			n:        n,
			alpha:    make([]float64, nTot),
			status:   make([]simplex.ColStatus, nTot),
			lower:    make([]float64, nTot),
			upper:    make([]float64, nTot),
			integer:  make([]bool, nTot),
			rowTerms: make([][]lp.Term, nr),
			rowRHS:   make([]float64, nr),
		}
		in.basic = r.intn(nTot)
		in.beta = r.smallFloat()
		if r.byte()%4 == 0 {
			in.beta = r.float64() // raw bits: NaN/Inf beta
		}
		for j := 0; j < nTot; j++ {
			if r.byte()%5 == 0 {
				in.alpha[j] = r.float64()
			} else {
				in.alpha[j] = r.smallFloat()
			}
			in.status[j] = simplex.ColStatus(1 + r.intn(4))
			switch r.byte() % 6 {
			case 0:
				in.lower[j], in.upper[j] = math.Inf(-1), math.Inf(1)
			case 1:
				in.lower[j], in.upper[j] = r.smallFloat(), math.Inf(1)
			case 2: // inverted bounds
				in.lower[j], in.upper[j] = 1, 0
			default:
				in.lower[j] = r.smallFloat()
				in.upper[j] = in.lower[j] + float64(r.intn(4))
			}
			in.integer[j] = r.byte()%2 == 0
		}
		in.status[in.basic] = simplex.ColBasic
		in.alpha[in.basic] = 1
		for rr := 0; rr < nr; rr++ {
			nt := r.intn(n + 1)
			terms := make([]lp.Term, 0, nt)
			for k := 0; k < nt; k++ {
				terms = append(terms, lp.Term{Var: lp.VarID(r.intn(n)), Coef: r.smallFloat()})
			}
			in.rowTerms[rr] = terms
			in.rowRHS[rr] = r.smallFloat()
		}

		o := Options{}.WithDefaults(n)
		c, ok := gomoryFromRow(in, &o)
		if !ok {
			return
		}
		x := make([]float64, n)
		for j := range x {
			x[j] = r.smallFloat()
		}
		if !c.finish(x, &o) {
			return
		}
		for _, tm := range c.Terms {
			if math.IsNaN(tm.Coef) || math.IsInf(tm.Coef, 0) {
				t.Fatalf("non-finite coefficient %v survived finish: %+v", tm.Coef, c)
			}
			if int(tm.Var) >= n {
				t.Fatalf("slack variable %d leaked into a finished cut", tm.Var)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			t.Fatalf("non-finite RHS survived finish: %+v", c)
		}
		if !(c.Violation >= o.minViolation) {
			t.Fatalf("finished cut below the violation floor: %+v", c)
		}
	})
}

// FuzzCoverSeparation builds small binary models from fuzz bytes —
// including zero/negative capacities, non-knapsack senses and ±Inf
// coefficients — and asserts the separator never panics, and that on
// well-formed models every returned cut preserves the full enumerated
// set of integer-feasible points (the validity property, fuzzed).
func FuzzCoverSeparation(f *testing.F) {
	f.Add([]byte{2, 1, 10, 10, 15, 200, 200})
	f.Add([]byte{4, 2, 3, 9, 4, 1, 0, 0, 128, 255, 60, 61, 62, 63})
	f.Add([]byte{3, 1, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(6)
		m := lp.NewModel("fuzz")
		for j := 0; j < n; j++ {
			m.AddVar(lp.Variable{Name: fmt.Sprintf("x%d", j), Upper: 1, Cost: -1, Type: lp.Binary})
		}
		nr := 1 + r.intn(3)
		for rr := 0; rr < nr; rr++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if r.byte()%4 == 0 {
					continue
				}
				c := float64(r.intn(9)) - 2 // includes 0 and negatives
				if r.byte()%16 == 0 {
					c = math.Inf(1)
				}
				terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
			}
			if len(terms) == 0 {
				continue
			}
			sense := lp.LE
			switch r.byte() % 4 {
			case 1:
				sense = lp.GE
			case 2:
				sense = lp.EQ
			}
			rhs := float64(r.intn(12)) - 2 // zero and negative capacities
			m.AddRow(fmt.Sprintf("r%d", rr), terms, sense, rhs)
		}

		x := make([]float64, n)
		for j := range x {
			x[j] = float64(r.intn(101)) / 100
		}
		isInt := make([]bool, n)
		for j := range isInt {
			isInt[j] = true
		}
		o := Options{}.WithDefaults(n)
		cuts := SeparateCovers(m.Relax(), isInt, x, &o)
		for i := range cuts {
			c := &cuts[i]
			if c.RHS < -0.5 {
				t.Fatalf("vacuous cover cut (empty cover): %+v", c)
			}
			if !(c.Violation >= o.minViolation) {
				t.Fatalf("cover cut below the violation floor: %+v", c)
			}
		}
		if m.Err() != nil {
			return // malformed rows rejected by the model: nothing to enumerate
		}
		pts := enumerateFeasible(m)
		for i := range cuts {
			assertCutPreserves(t, 0, &cuts[i], pts)
		}
	})
}
