package ra

import (
	"math"
	"math/rand"
	"testing"

	"tcq/internal/tuple"
)

// TestCompileBatchMatchesCompile is the row-for-row equivalence pin:
// the vectorized predicate must agree with the scalar compiler on every
// row, across int/float/string operands, NaN, and nested connectives.
func TestCompileBatchMatchesCompile(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
		tuple.Column{Name: "x", Type: tuple.Float},
		tuple.Column{Name: "s", Type: tuple.String, Size: 4},
	)
	rng := rand.New(rand.NewSource(11))
	b := tuple.NewBatch(schema)
	var rows []tuple.Tuple
	strs := []string{"", "a", "ab", "zzz", "b\x00c"}
	for i := 0; i < 300; i++ {
		x := rng.NormFloat64()
		if i%37 == 0 {
			x = math.NaN()
		}
		r := tuple.Tuple{int64(i), int64(rng.Intn(50) - 25), x, strs[rng.Intn(len(strs))]}
		rows = append(rows, r)
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	ops := []CmpOp{Lt, Le, Eq, Ne, Ge, Gt}
	atoms := []Pred{}
	for _, op := range ops {
		atoms = append(atoms,
			&Cmp{Left: Col{Name: "a"}, Op: op, Right: Const{Value: int64(0)}},
			&Cmp{Left: Const{Value: 3}, Op: op, Right: Col{Name: "a"}},
			&Cmp{Left: Col{Name: "a"}, Op: op, Right: Col{Name: "id"}},
			&Cmp{Left: Col{Name: "x"}, Op: op, Right: Const{Value: 0.5}},
			&Cmp{Left: Col{Name: "x"}, Op: op, Right: Col{Name: "a"}},
			&Cmp{Left: Col{Name: "s"}, Op: op, Right: Const{Value: "ab"}},
		)
	}
	preds := append([]Pred{True{}, &True{}}, atoms...)
	for i := 0; i+3 < len(atoms); i += 4 {
		preds = append(preds,
			&And{L: atoms[i], R: &Or{L: atoms[i+1], R: &Not{P: atoms[i+2]}}},
			&Or{L: &Not{P: atoms[i]}, R: &And{L: atoms[i+2], R: atoms[i+3]}},
		)
	}
	for _, p := range preds {
		scalar, err := Compile(p, schema)
		if err != nil {
			t.Fatalf("Compile(%s): %v", p, err)
		}
		batched, err := CompileBatch(p, schema)
		if err != nil {
			t.Fatalf("CompileBatch(%s): %v", p, err)
		}
		out := make([]bool, b.Len())
		batched(b, out)
		for i, r := range rows {
			if want := scalar(r); out[i] != want {
				t.Fatalf("pred %s row %d (%v): batch=%v scalar=%v", p, i, r, out[i], want)
			}
		}
		// Re-evaluation over another batch must reuse internal scratch
		// safely.
		half := tuple.NewBatch(b.Schema())
		half.AppendRange(b, 0, b.Len()/2)
		out2 := make([]bool, half.Len())
		batched(half, out2)
		for i := range out2 {
			if out2[i] != out[i] {
				t.Fatalf("pred %s view row %d: %v != %v", p, i, out2[i], out[i])
			}
		}
	}
	if _, err := CompileBatch(&Cmp{Left: Col{Name: "nope"}, Op: Eq, Right: Const{Value: int64(1)}}, schema); err == nil {
		t.Error("CompileBatch accepted unknown column")
	}
}
