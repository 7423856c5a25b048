package alias

import (
	"slices"

	"noelle/internal/ir"
)

// Views of the analysis' internal state for the reference differential
// (reference_test.go lives in alias_test: its subjects come from packages
// that import this one).

// HeapSet returns the objects obj's cells may point to.
func (pt *PointsTo) HeapSet(obj ir.Value) []ir.Value {
	return pt.values(pt.sets[slices.Index(pt.objs, obj)])
}

// Summary returns f's transitive mod/ref sets and effect bits.
func (pt *PointsTo) Summary(f *ir.Function) (reads, writes []ir.Value, io, opaque bool) {
	fs := pt.funcs[f]
	return pt.values(fs.reads), pt.values(fs.writes), fs.io, fs.opaque
}
