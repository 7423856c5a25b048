package ir

import "testing"

// buildCallerModule builds a module where @main calls @sum, with one
// global, so fingerprints exercise the body and globals hashes.
func buildCallerModule(t *testing.T) *Module {
	t.Helper()
	m, sum := buildSumFunc(t)
	g := &Global{Nam: "seed", Elem: I64Type, Init: []int64{7}}
	m.AddGlobal(g)

	f := NewFunction("main", FuncOf(I64Type))
	m.AddFunction(f)
	entry := f.NewBlock("entry")
	b := NewBuilder()
	b.SetInsertionBlock(entry)
	v := b.CreateLoad(g, "v")
	r := b.CreateCall(sum, []Value{v}, "r")
	b.CreateRet(r)
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

// addConstFunc adds a function @name whose body returns c.
func addConstFunc(m *Module, name string, c int64) *Function {
	f := NewFunction(name, FuncOf(I64Type))
	m.AddFunction(f)
	b := NewBuilder()
	b.SetInsertionBlock(f.NewBlock("entry"))
	b.CreateRet(ConstInt(c))
	return f
}

func TestFingerprintStableAcrossClone(t *testing.T) {
	m := buildCallerModule(t)
	if a, b := ModuleFingerprint(m), ModuleFingerprint(CloneModule(m)); a != b {
		t.Errorf("clone fingerprint %s != original %s", b.Short(), a.Short())
	}
}

func TestFingerprintIgnoresIDsNamesAndMetadata(t *testing.T) {
	m := buildCallerModule(t)
	want := ModuleFingerprint(m)

	m.AssignIDs()
	if got := ModuleFingerprint(m); got != want {
		t.Errorf("AssignIDs changed fingerprint: %s != %s", got.Short(), want.Short())
	}
	// Renumber to something AssignIDs would never produce.
	m.Instrs(func(_ *Function, in *Instr) bool {
		in.ID = in.ID*31 + 1000
		return true
	})
	if got := ModuleFingerprint(m); got != want {
		t.Errorf("renumbered IDs changed fingerprint: %s != %s", got.Short(), want.Short())
	}
	// SSA names and metadata are cosmetic too.
	main := m.FunctionByName("main")
	main.Blocks[0].Instrs[0].Nam = "renamed"
	main.SetMD("noelle.something", "x")
	main.Blocks[0].Instrs[0].SetMD("k", "v")
	m.SetMD("noelle.pdg.main", "0>1:0M")
	if got := ModuleFingerprint(m); got != want {
		t.Errorf("names/metadata changed fingerprint: %s != %s", got.Short(), want.Short())
	}
}

// editSumStep makes @sum's induction step 2.
func editSumStep(t *testing.T, m *Module) {
	t.Helper()
	edited := false
	m.FunctionByName("sum").Instrs(func(in *Instr) bool {
		if in.Nam == "i2" {
			in.Ops[1] = ConstInt(2)
			edited = true
			return false
		}
		return true
	})
	if !edited {
		t.Fatal("did not find @sum's induction update")
	}
}

func TestFingerprintChangesOnSemanticEdits(t *testing.T) {
	base := ModuleFingerprint(buildCallerModule(t))

	// Operand edit in @main's body.
	m := buildCallerModule(t)
	m.FunctionByName("main").Blocks[0].Instrs[1].Ops[1] = ConstInt(42)
	if ModuleFingerprint(m) == base {
		t.Error("operand edit did not change fingerprint")
	}

	// An edit to @sum, which @main calls.
	m = buildCallerModule(t)
	editSumStep(t, m)
	if ModuleFingerprint(m) == base {
		t.Error("callee body edit did not change fingerprint")
	}

	// Alias-relevant global edit.
	m = buildCallerModule(t)
	m.Globals[0].Init[0] = 99
	if ModuleFingerprint(m) == base {
		t.Error("global initializer edit did not change fingerprint")
	}
}

// TestFingerprintDistinctFunctionsDiffer: the fold binds each body to its
// name, so two functions trading bodies change the module.
func TestFingerprintDistinctFunctionsDiffer(t *testing.T) {
	m := buildCallerModule(t)
	addConstFunc(m, "one", 1)
	addConstFunc(m, "two", 2)
	swapped := buildCallerModule(t)
	addConstFunc(swapped, "one", 2)
	addConstFunc(swapped, "two", 1)
	if ModuleFingerprint(m) == ModuleFingerprint(swapped) {
		t.Error("functions trading bodies left the module fingerprint unchanged")
	}
}

// TestFingerprinterInvalidateRehashesOneBody: a Fingerprinter keeps its
// fold across an edit until the edited function is invalidated, and then
// agrees with a fresh one.
func TestFingerprinterInvalidateRehashesOneBody(t *testing.T) {
	m := buildCallerModule(t)
	p := NewFingerprinter(m)
	before := p.Module()
	editSumStep(t, m)
	if p.Module() != before {
		t.Error("the fold changed before anything was invalidated")
	}
	p.Invalidate(m.FunctionByName("sum"))
	if got, want := p.Module(), ModuleFingerprint(m); got != want || got == before {
		t.Errorf("after Invalidate: %s, fresh %s, before the edit %s", got.Short(), want.Short(), before.Short())
	}
}

// Module fingerprints key the compile service's session cache: any two
// structurally identical modules — cloned, renumbered, reordered — must
// land on one resident session, and any semantic change must not.

func TestModuleFingerprintStableAcrossCloneAndCosmetics(t *testing.T) {
	m := buildCallerModule(t)
	want := ModuleFingerprint(m)

	if got := ModuleFingerprint(CloneModule(m)); got != want {
		t.Errorf("clone module fingerprint %s != %s", got.Short(), want.Short())
	}
	m.AssignIDs()
	m.Instrs(func(_ *Function, in *Instr) bool {
		in.ID = in.ID*31 + 1000
		return true
	})
	if got := ModuleFingerprint(m); got != want {
		t.Errorf("renumbering changed module fingerprint: %s != %s", got.Short(), want.Short())
	}
	// Function declaration order is cosmetic too: the hash sorts by name.
	m2 := buildCallerModule(t)
	for i, j := 0, len(m2.Functions)-1; i < j; i, j = i+1, j-1 {
		m2.Functions[i], m2.Functions[j] = m2.Functions[j], m2.Functions[i]
	}
	if got := ModuleFingerprint(m2); got != want {
		t.Errorf("function reorder changed module fingerprint: %s != %s", got.Short(), want.Short())
	}
}

func TestModuleFingerprintChangesOnSemanticEdits(t *testing.T) {
	want := ModuleFingerprint(buildCallerModule(t))

	m := buildCallerModule(t)
	m.FunctionByName("main").Blocks[0].Instrs[1].Ops[1] = ConstInt(42)
	if ModuleFingerprint(m) == want {
		t.Error("body edit did not change module fingerprint")
	}

	m = buildCallerModule(t)
	m.Globals[0].Init[0] = 99
	if ModuleFingerprint(m) == want {
		t.Error("global initializer edit did not change module fingerprint")
	}

	// An extra function changes the module even though no existing
	// function changed.
	m = buildCallerModule(t)
	addConstFunc(m, "extra", 0)
	if ModuleFingerprint(m) == want {
		t.Error("added function did not change module fingerprint")
	}
}
