package ir

// CloneModule deep-copies a module. Cross-references (globals, functions,
// blocks, instruction operands) are remapped into the clone. Semantics
// tests rely on this to interpret the original and a transformed copy of
// the same program independently.
func CloneModule(m *Module) *Module {
	out := NewModule(m.Name)
	out.MD = m.MD.Clone()
	out.LinkOptions = append([]string(nil), m.LinkOptions...)

	gmap := make(map[*Global]*Global, len(m.Globals))
	for _, g := range m.Globals {
		ng := &Global{
			Nam:   g.Nam,
			Elem:  g.Elem,
			Init:  append([]int64(nil), g.Init...),
			FInit: append([]float64(nil), g.FInit...),
			MD:    g.MD.Clone(),
		}
		out.AddGlobal(ng)
		gmap[g] = ng
	}

	fmap := make(map[*Function]*Function, len(m.Functions))
	for _, f := range m.Functions {
		nf := NewFunction(f.Nam, f.Sig)
		for i, p := range f.Params {
			nf.Params[i].Nam = p.Nam
		}
		nf.MD = f.MD.Clone()
		nf.ID = f.ID
		nf.nextName = f.nextName
		out.AddFunction(nf)
		fmap[f] = nf
	}

	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		cloneBody(f, fmap[f], gmap, fmap)
	}
	return out
}

func cloneBody(f, nf *Function, gmap map[*Global]*Global, fmap map[*Function]*Function) {
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Nam: b.Nam, Parent: nf, ID: b.ID, MD: b.MD.Clone()}
		nf.Blocks = append(nf.Blocks, nb)
		bmap[b] = nb
	}
	imap := map[*Instr]*Instr{}
	// First pass: create instruction shells so operand remapping can refer
	// to instructions defined later (phis and cross-block uses).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ni := &Instr{
				Opcode:      in.Opcode,
				Ty:          in.Ty,
				Nam:         in.Nam,
				AllocaElem:  in.AllocaElem,
				AllocaCount: in.AllocaCount,
				Parent:      bmap[b],
				ID:          in.ID,
				MD:          in.MD.Clone(),
			}
			bmap[b].Instrs = append(bmap[b].Instrs, ni)
			imap[in] = ni
		}
	}
	remap := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			return imap[x]
		case *Param:
			return nf.Params[x.Index]
		case *Global:
			return gmap[x]
		case *Function:
			return fmap[x]
		default: // *Const
			return v
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ni := imap[in]
			for _, op := range in.Ops {
				ni.Ops = append(ni.Ops, remap(op))
			}
			for _, tb := range in.Blocks {
				ni.Blocks = append(ni.Blocks, bmap[tb])
			}
		}
	}
}
