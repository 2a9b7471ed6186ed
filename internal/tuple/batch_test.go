package tuple

import (
	"bytes"
	"testing"
)

func batchSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "x", Type: Float},
		Column{Name: "s", Type: String, Size: 8},
	)
}

func TestBatchRoundTrip(t *testing.T) {
	s := batchSchema(t)
	rows := []Tuple{
		{int64(1), 1.5, "a"},
		{int64(-7), 0.0, ""},
		{int64(42), -2.25, "zz\x00z"},
	}
	b := NewBatch(s)
	if b.Len() != 0 {
		t.Fatalf("empty batch Len = %d", b.Len())
	}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Rows()
	if len(got) != len(rows) {
		t.Fatalf("Rows len = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if Compare(got[i], rows[i], nil, nil) != 0 {
			t.Errorf("row %d = %v, want %v", i, got[i], rows[i])
		}
		if Compare(b.Row(i), rows[i], nil, nil) != 0 {
			t.Errorf("Row(%d) = %v, want %v", i, b.Row(i), rows[i])
		}
	}
	if err := b.AppendRow(Tuple{int64(1), 1.0, "way-too-long"}); err == nil {
		t.Error("AppendRow accepted oversized string")
	}
	if err := b.AppendRow(Tuple{1.0, 1.0, ""}); err == nil {
		t.Error("AppendRow accepted wrong-typed value")
	}
}

func TestBatchAppendRangeCopiesRows(t *testing.T) {
	s := batchSchema(t)
	src := NewBatch(s)
	for i := 0; i < 10; i++ {
		if err := src.AppendRow(Tuple{int64(i), float64(i), "v"}); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBatch(s)
	b.Grow(3)
	b.AppendRange(src, 2, 5)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	// The rows are copies: later appends to either batch leave the
	// other untouched.
	for i := 10; i < 200; i++ {
		if err := src.AppendRow(Tuple{int64(i), 0.0, ""}); err != nil {
			t.Fatal(err)
		}
	}
	b.AppendRange(src, 0, 1)
	for i, want := range []int64{2, 3, 4, 0} {
		if got := b.Ints(0)[i]; got != want {
			t.Errorf("row %d id = %d, want %d", i, got, want)
		}
	}
	if got := src.Ints(0)[2]; got != 2 {
		t.Errorf("source row 2 id = %d after appends to the copy", got)
	}
	rows := b.RowsRange(1, 3)
	if len(rows) != 2 || rows[0][0] != int64(3) || rows[1][2] != "v" {
		t.Errorf("RowsRange(1, 3) = %v", rows)
	}
	b.AppendRange(src, 4, 4)
	if b.Len() != 4 || len(b.RowsRange(2, 2)) != 0 {
		t.Errorf("empty ranges changed the batch: len=%d", b.Len())
	}
}

func TestBatchAppendBatchAndMake(t *testing.T) {
	s := batchSchema(t)
	ids := []int64{5, 6}
	xs := []float64{0.5, 0.25}
	ss := []string{"p", "q"}
	m, err := MakeBatch(s, 2, ids, xs, ss)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(s)
	if err := b.AppendBatch(m); err != nil {
		t.Fatal(err)
	}
	b.AppendRange(m, 1, 2)
	want := []int64{5, 6, 6}
	for i, w := range want {
		if got := b.Ints(0)[i]; got != w {
			t.Errorf("ids[%d] = %d, want %d", i, got, w)
		}
	}
	if _, err := MakeBatch(s, 2, ids, xs); err == nil {
		t.Error("MakeBatch accepted missing column")
	}
	if _, err := MakeBatch(s, 2, xs, ids, ss); err == nil {
		t.Error("MakeBatch accepted type mismatch")
	}
	if _, err := MakeBatch(s, 3, ids, xs, ss); err == nil {
		t.Error("MakeBatch accepted length mismatch")
	}
}

// TestBatchNormKeyMatchesTuple pins that the typed-column key encoder
// produces byte-identical keys to the row encoder in key.go.
func TestBatchNormKeyMatchesTuple(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "s", Type: String, Size: 10},
	)
	rows := []Tuple{
		{int64(0), ""},
		{int64(-1), "a\x00b"},
		{int64(1 << 40), "plain"},
	}
	b := NewBatch(s)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]int{nil, {0}, {1, 0}} {
		for i, r := range rows {
			want := AppendNormKey(nil, r, cols)
			got := b.AppendNormKey(nil, i, cols)
			if !bytes.Equal(got, want) {
				t.Errorf("cols %v row %d: batch key %x != tuple key %x", cols, i, got, want)
			}
		}
	}
}

func TestBatchProjectAndRowsAt(t *testing.T) {
	s := batchSchema(t)
	b := NewBatch(s)
	for i := 0; i < 4; i++ {
		if err := b.AppendRow(Tuple{int64(i), float64(i) / 2, "r"}); err != nil {
			t.Fatal(err)
		}
	}
	ps, idx, err := s.Project([]string{"s", "id"})
	if err != nil {
		t.Fatal(err)
	}
	pv := b.Project(ps, idx)
	if pv.Len() != 4 {
		t.Fatalf("projected Len = %d", pv.Len())
	}
	if got := pv.Row(2); Compare(got, Tuple{"r", int64(2)}, nil, nil) != 0 {
		t.Errorf("projected row = %v", got)
	}
	sel := b.RowsAt([]int32{3, 0})
	if len(sel) != 2 || sel[0][0].(int64) != 3 || sel[1][0].(int64) != 0 {
		t.Errorf("RowsAt = %v", sel)
	}
	if b.RowsAt([]int32{}) != nil {
		t.Error("RowsAt(empty) should be nil")
	}
}
