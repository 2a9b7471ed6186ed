package tuple

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Batch is a column-oriented block of tuples: one typed slice per
// schema column instead of a []Value per row. It is the unit the
// batch-at-a-time executor moves around — relations store their data as
// one big Batch, block reads append a block's rows to a stage batch by
// bulk column copy (AppendRange), selection evaluates predicates
// directly over the typed columns, and rows are materialized to []Value
// form only where an operator genuinely needs row access (join
// emission, aggregation output).
//
// A Batch obtained from Project is a view sharing the parent's column
// storage and must be treated as read-only.
type Batch struct {
	schema *Schema
	n      int
	cols   []colData
}

// colData holds one column's values; exactly one slice is non-nil,
// matching the column type.
type colData struct {
	ints    []int64
	floats  []float64
	strings []string
}

// NewBatch returns an empty batch for the schema.
func NewBatch(s *Schema) *Batch {
	return &Batch{schema: s, cols: make([]colData, len(s.cols))}
}

// MakeBatch wraps pre-built column slices into a batch without copying.
// Each of cols must be a []int64, []float64 or []string matching the
// schema's column type at that position, all of length n. The caller
// must not modify the slices afterwards. String values are width-checked
// against the schema.
func MakeBatch(s *Schema, n int, cols ...any) (*Batch, error) {
	if len(cols) != len(s.cols) {
		return nil, fmt.Errorf("tuple: MakeBatch got %d columns, schema wants %d", len(cols), len(s.cols))
	}
	b := &Batch{schema: s, n: n, cols: make([]colData, len(s.cols))}
	for i, c := range s.cols {
		switch v := cols[i].(type) {
		case []int64:
			if c.Type != Int || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []int64 len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			b.cols[i].ints = v[:n:n]
		case []float64:
			if c.Type != Float || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []float64 len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			b.cols[i].floats = v[:n:n]
		case []string:
			if c.Type != String || len(v) != n {
				return nil, fmt.Errorf("tuple: MakeBatch column %q: got []string len %d, want %s len %d", c.Name, len(v), c.Type, n)
			}
			for _, s := range v {
				if len(s) > c.Size {
					return nil, fmt.Errorf("tuple: MakeBatch column %q: value %d bytes exceeds width %d", c.Name, len(s), c.Size)
				}
			}
			b.cols[i].strings = v[:n:n]
		default:
			return nil, fmt.Errorf("tuple: MakeBatch column %q: unsupported slice type %T", c.Name, cols[i])
		}
	}
	return b, nil
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Ints returns the typed storage of an Int column.
func (b *Batch) Ints(col int) []int64 { return b.cols[col].ints }

// Floats returns the typed storage of a Float column.
func (b *Batch) Floats(col int) []float64 { return b.cols[col].floats }

// Strings returns the typed storage of a String column.
func (b *Batch) Strings(col int) []string { return b.cols[col].strings }

// AppendRow validates t against the schema and appends it.
func (b *Batch) AppendRow(t Tuple) error {
	if err := t.Validate(b.schema); err != nil {
		return err
	}
	for i, c := range b.schema.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = append(b.cols[i].ints, t[i].(int64))
		case Float:
			b.cols[i].floats = append(b.cols[i].floats, t[i].(float64))
		case String:
			b.cols[i].strings = append(b.cols[i].strings, t[i].(string))
		}
	}
	b.n++
	return nil
}

// AppendBatch appends all rows of o (same schema) by bulk column copy.
func (b *Batch) AppendBatch(o *Batch) error {
	if !b.schema.Equal(o.schema) {
		return fmt.Errorf("tuple: AppendBatch schema mismatch")
	}
	b.AppendRange(o, 0, o.n)
	return nil
}

// AppendRange appends rows [lo, hi) of o by bulk column copy. The
// caller must ensure o has b's schema.
func (b *Batch) AppendRange(o *Batch, lo, hi int) {
	for i, c := range b.schema.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = append(b.cols[i].ints, o.cols[i].ints[lo:hi]...)
		case Float:
			b.cols[i].floats = append(b.cols[i].floats, o.cols[i].floats[lo:hi]...)
		case String:
			b.cols[i].strings = append(b.cols[i].strings, o.cols[i].strings[lo:hi]...)
		}
	}
	b.n += hi - lo
}

// Grow ensures room for n more rows, so the next appends of up to n
// rows reallocate no column.
func (b *Batch) Grow(n int) {
	for i, c := range b.schema.cols {
		switch c.Type {
		case Int:
			b.cols[i].ints = slices.Grow(b.cols[i].ints, n)
		case Float:
			b.cols[i].floats = slices.Grow(b.cols[i].floats, n)
		case String:
			b.cols[i].strings = slices.Grow(b.cols[i].strings, n)
		}
	}
}

// Project returns a zero-copy view holding only the columns at idx, in
// that order; s must be the projected schema (as from Schema.Project).
func (b *Batch) Project(s *Schema, idx []int) *Batch {
	out := &Batch{schema: s, n: b.n, cols: make([]colData, len(idx))}
	for i, j := range idx {
		out.cols[i] = b.cols[j]
	}
	return out
}

// Value returns the single value at (col, row) as a boxed Value.
func (b *Batch) Value(col, row int) Value {
	switch {
	case b.cols[col].ints != nil:
		return b.cols[col].ints[row]
	case b.cols[col].floats != nil:
		return b.cols[col].floats[row]
	default:
		return b.cols[col].strings[row]
	}
}

// Row materializes row i as a Tuple.
func (b *Batch) Row(i int) Tuple {
	t := make(Tuple, len(b.cols))
	b.fillRow(t, i)
	return t
}

func (b *Batch) fillRow(t Tuple, i int) {
	for c := range b.cols {
		switch {
		case b.cols[c].ints != nil:
			t[c] = b.cols[c].ints[i]
		case b.cols[c].floats != nil:
			t[c] = b.cols[c].floats[i]
		default:
			t[c] = b.cols[c].strings[i]
		}
	}
}

// Rows materializes every row, sharing one backing []Value arena.
func (b *Batch) Rows() []Tuple {
	return b.RowsRange(0, b.n)
}

// RowsRange materializes rows [lo, hi), sharing one backing []Value
// arena across the tuples.
func (b *Batch) RowsRange(lo, hi int) []Tuple {
	return b.rows(hi-lo, func(i int) int { return lo + i })
}

// RowsAt materializes the rows at the given indices (all rows when sel
// is nil), sharing one backing []Value arena across the tuples.
func (b *Batch) RowsAt(sel []int32) []Tuple {
	if sel == nil {
		return b.Rows()
	}
	return b.rows(len(sel), func(i int) int { return int(sel[i]) })
}

// rows materializes n rows, the i-th being row(i).
func (b *Batch) rows(n int, row func(i int) int) []Tuple {
	if n == 0 {
		return nil
	}
	w := len(b.cols)
	arena := make([]Value, n*w)
	out := make([]Tuple, n)
	for i := 0; i < n; i++ {
		t := arena[i*w : (i+1)*w : (i+1)*w]
		b.fillRow(Tuple(t), row(i))
		out[i] = Tuple(t)
	}
	return out
}

// AppendNormKey appends the normalized sort key of row i over the given
// columns (all columns when cols is nil) to dst — the typed-column
// equivalent of Tuple.AppendNormKey, with identical encoding. The
// caller must have checked CanNormalizeKeys.
func (b *Batch) AppendNormKey(dst []byte, row int, cols []int) []byte {
	if cols == nil {
		for c := range b.cols {
			dst = b.appendNormCol(dst, row, c)
		}
		return dst
	}
	for _, c := range cols {
		dst = b.appendNormCol(dst, row, c)
	}
	return dst
}

func (b *Batch) appendNormCol(dst []byte, row, c int) []byte {
	switch {
	case b.cols[c].ints != nil:
		return binary.BigEndian.AppendUint64(dst, uint64(b.cols[c].ints[row])^(1<<63))
	case b.cols[c].strings != nil:
		return appendNormString(dst, b.cols[c].strings[row])
	default:
		panic("tuple: Batch.AppendNormKey on unsupported column type")
	}
}
