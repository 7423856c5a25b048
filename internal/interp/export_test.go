package interp

import "noelle/internal/ir"

// CompileAll lowers every defined function of m on the compiled tier and
// returns the first rejection. The external test package needs it
// because the lowerings it checks live in packages that import interp.
func CompileAll(m *ir.Module) error {
	it := New(m)
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		if _, err := compileFunc(it.img, f, it.Cost, probes{}); err != nil {
			return err
		}
	}
	return nil
}
