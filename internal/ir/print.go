package ir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// metadataSuffix renders a metadata attachment as ` !{k="v", ...}` with
// deterministic key order.
func metadataSuffix(md Metadata) string {
	if len(md) == 0 {
		return ""
	}
	keys := make([]string, 0, len(md))
	for k := range md {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(" !{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, strconv.Quote(md[k]))
	}
	b.WriteString("}")
	return b.String()
}

// FormatFloat renders a float constant so that it is lexically
// distinguishable from an integer: it contains '.' or 'e', or it is one of
// the non-finite spellings +Inf, -Inf and NaN. The parser relies on this
// property.
func FormatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eIN") {
		s += ".0"
	}
	return s
}

// operandString renders an operand with lexical typing: i1 constants print
// as true/false, floats always contain '.' or 'e', ints are bare digits.
func operandString(v Value) string {
	c, ok := v.(*Const)
	if !ok {
		return fmtIdent(v)
	}
	switch c.Ty.Kind {
	case I1Kind:
		if c.Int != 0 {
			return "true"
		}
		return "false"
	case F64Kind:
		return FormatFloat(c.Flt)
	default:
		return strconv.FormatInt(c.Int, 10)
	}
}

// Print renders the whole module in textual IR form. The output parses back
// with irtext.Parse to an equivalent module.
func Print(m *Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %q\n", m.Name)
	for _, opt := range m.LinkOptions {
		fmt.Fprintf(&b, "linkopt %q\n", opt)
	}
	if len(m.MD) > 0 {
		keys := make([]string, 0, len(m.MD))
		for k := range m.MD {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "meta %q = %q\n", k, m.MD[k])
		}
	}
	b.WriteString("\n")

	for _, g := range m.Globals {
		printGlobal(&b, g)
	}
	if len(m.Globals) > 0 {
		b.WriteString("\n")
	}

	for _, f := range m.Functions {
		if f.IsDeclaration() {
			fmt.Fprintf(&b, "declare @%s : %s%s\n", f.Nam, f.Sig, metadataSuffix(f.MD))
		}
	}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			b.WriteString("\n")
			printFunction(&b, f)
		}
	}
	return b.String()
}

func printGlobal(b *strings.Builder, g *Global) {
	fmt.Fprintf(b, "global @%s : %s", g.Nam, g.Elem)
	scalar := g.ScalarElem()
	switch {
	case scalar.IsFloat() && len(g.FInit) > 0:
		b.WriteString(" = {")
		for i, v := range g.FInit {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + FormatFloat(v))
		}
		b.WriteString(" }")
	case !scalar.IsFloat() && len(g.Init) > 0:
		b.WriteString(" = {")
		for i, v := range g.Init {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + strconv.FormatInt(v, 10))
		}
		b.WriteString(" }")
	default:
		b.WriteString(" zeroinit")
	}
	b.WriteString(metadataSuffix(g.MD))
	b.WriteString("\n")
}

// uniquifyNames renames duplicate SSA result names within f (transforms
// may mint the same debug-friendly name twice); the textual format
// requires unique names per function.
func uniquifyNames(f *Function) {
	seen := map[string]int{}
	for _, p := range f.Params {
		seen[p.Nam]++
	}
	f.Instrs(func(in *Instr) bool {
		if !in.HasResult() || in.Nam == "" {
			return true
		}
		seen[in.Nam]++
		if seen[in.Nam] > 1 {
			base := in.Nam
			for {
				candidate := fmt.Sprintf("%s.u%d", base, seen[base]-1)
				if seen[candidate] == 0 {
					in.Nam = candidate
					seen[candidate] = 1
					break
				}
				seen[base]++
			}
		}
		return true
	})
}

func printFunction(b *strings.Builder, f *Function) {
	uniquifyNames(f)
	fmt.Fprintf(b, "func @%s(", f.Nam)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%%%s: %s", p.Nam, p.Ty)
	}
	fmt.Fprintf(b, ") %s%s {\n", f.Sig.Ret, metadataSuffix(f.MD))
	for _, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:%s\n", blk.Nam, metadataSuffix(blk.MD))
		for _, in := range blk.Instrs {
			b.WriteString("  " + instrString(in) + "\n")
		}
	}
	b.WriteString("}\n")
}

// instrString is like Instr.String but uses lexically typed operands so
// the output round-trips through the parser.
func instrString(in *Instr) string {
	var b strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&b, "%s = ", in.Ident())
	}
	switch in.Opcode {
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %s, %d", in.AllocaElem, in.AllocaCount)
	case OpLoad:
		fmt.Fprintf(&b, "load %s, %s", in.Ty, operandString(in.Ops[0]))
	case OpStore:
		fmt.Fprintf(&b, "store %s %s, %s", in.Ops[0].Type(), operandString(in.Ops[0]), operandString(in.Ops[1]))
	case OpPtrAdd:
		fmt.Fprintf(&b, "ptradd %s, %s", operandString(in.Ops[0]), operandString(in.Ops[1]))
	case OpPhi:
		fmt.Fprintf(&b, "phi %s", in.Ty)
		for i := range in.Ops {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " [ %s, %s ]", operandString(in.Ops[i]), in.Blocks[i].Nam)
		}
	case OpCall:
		fmt.Fprintf(&b, "call %s %s(", in.Ty, operandString(in.Ops[0]))
		for i, a := range in.Ops[1:] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(operandString(a))
		}
		b.WriteString(")")
	case OpBr:
		fmt.Fprintf(&b, "br %s", in.Blocks[0].Nam)
	case OpCondBr:
		fmt.Fprintf(&b, "condbr %s, %s, %s", operandString(in.Ops[0]), in.Blocks[0].Nam, in.Blocks[1].Nam)
	case OpRet:
		if len(in.Ops) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", operandString(in.Ops[0]))
		}
	case OpSelect:
		fmt.Fprintf(&b, "select %s, %s, %s", operandString(in.Ops[0]), operandString(in.Ops[1]), operandString(in.Ops[2]))
	case OpI2P:
		fmt.Fprintf(&b, "i2p %s, %s", in.Ty, operandString(in.Ops[0]))
	default:
		b.WriteString(in.Opcode.String())
		for i, op := range in.Ops {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + operandString(op))
		}
	}
	if len(in.MD) > 0 {
		b.WriteString(metadataSuffix(in.MD))
	}
	return b.String()
}
