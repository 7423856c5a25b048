// Package env implements NOELLE's Environment (ENV) and Task (T)
// abstractions. An Environment is an array of value slots carrying the
// live-ins and live-outs of a code region; a Task is a code region
// extracted into its own function that communicates with the rest of the
// program exclusively through its environment. Parallelization techniques
// partition a loop's aSCCDAG into tasks, build one environment per task,
// and let a thread pool run the tasks across cores (paper Section 2.2).
//
// This package is the data side: slot layout, the task signature, a
// slot's address, and the casts between a typed value and the raw i64 a
// cell (or a queue) carries. The code that moves values through an
// environment — packing, live-in loads, publishes, reloads — is emitted
// in one place, loopbuilder's outlining scaffold.
package env

import (
	"fmt"

	"noelle/internal/ir"
)

// SlotKind says which direction a value flows through the environment.
type SlotKind int

// Slot kinds.
const (
	LiveIn SlotKind = iota
	LiveOut
)

// Slot is one entry of an environment.
type Slot struct {
	Kind  SlotKind
	Value ir.Value // the SSA value communicated through this slot
	Index int
}

// Environment describes the memory block a task uses to exchange values
// with the surrounding code: one 8-byte cell per slot (live-ins written by
// the dispatcher, live-outs written by the task).
type Environment struct {
	Slots []*Slot
	index map[ir.Value]*Slot
}

// Builder incrementally constructs an Environment (the paper's
// "Environment Builder").
type Builder struct {
	e *Environment
}

// NewBuilder returns an empty environment builder.
func NewBuilder() *Builder {
	return &Builder{e: &Environment{index: map[ir.Value]*Slot{}}}
}

// AddLiveIn allocates (or reuses) a live-in slot for v.
func (b *Builder) AddLiveIn(v ir.Value) *Slot { return b.add(v, LiveIn) }

// AddLiveOut allocates (or upgrades to) a live-out slot for v.
func (b *Builder) AddLiveOut(v ir.Value) *Slot {
	if s, ok := b.e.index[v]; ok {
		s.Kind = LiveOut
		return s
	}
	return b.add(v, LiveOut)
}

func (b *Builder) add(v ir.Value, kind SlotKind) *Slot {
	if s, ok := b.e.index[v]; ok {
		return s
	}
	s := &Slot{Kind: kind, Value: v, Index: len(b.e.Slots)}
	b.e.Slots = append(b.e.Slots, s)
	b.e.index[v] = s
	return s
}

// Build finalizes the environment.
func (b *Builder) Build() *Environment { return b.e }

// SlotOf returns the slot carrying v, or nil.
func (e *Environment) SlotOf(v ir.Value) *Slot {
	if e.index == nil {
		return nil
	}
	return e.index[v]
}

// NumSlots returns the slot count.
func (e *Environment) NumSlots() int { return len(e.Slots) }

// Task is NOELLE's T abstraction: a sequentially-executing code region
// extracted as a function of the form task(env *i64, workerID i64,
// numWorkers i64), plus the environment describing its communication.
type Task struct {
	// Fn is the extracted task body.
	Fn *ir.Function
	// Env describes the task's live-ins/live-outs/reductions.
	Env *Environment
	// WorkerID is the formal parameter carrying the worker index.
	WorkerID *ir.Param
	// NumWorkers is the formal parameter carrying the worker count.
	NumWorkers *ir.Param
	// EnvPtr is the formal parameter pointing at the environment block.
	EnvPtr *ir.Param
}

// TaskSignature is the IR type of every task function.
func TaskSignature() *ir.Type {
	return ir.FuncOf(ir.VoidType, ir.PointerTo(ir.I64Type), ir.I64Type, ir.I64Type)
}

// NewTask creates an empty task function named name inside m.
func NewTask(m *ir.Module, name string, e *Environment) *Task {
	fn := ir.NewFunction(name, TaskSignature(), "env", "worker", "nworkers")
	m.AddFunction(fn)
	return &Task{
		Fn:         fn,
		Env:        e,
		EnvPtr:     fn.Params[0],
		WorkerID:   fn.Params[1],
		NumWorkers: fn.Params[2],
	}
}

// EnvSlotAddr emits (into bld) the address of slot s within the task's
// environment block.
func (t *Task) EnvSlotAddr(bld *ir.Builder, s *Slot) ir.Value {
	return bld.CreatePtrAdd(t.EnvPtr, ir.ConstInt(int64(s.Index)), fmt.Sprintf("env.slot%d", s.Index))
}

// ToBits emits the cast flattening v into the raw i64 an environment cell
// (or a communication queue) carries.
func ToBits(bld *ir.Builder, v ir.Value) ir.Value {
	switch v.Type().Kind {
	case ir.F64Kind:
		return bld.CreateCast(ir.OpFBits, v, "")
	case ir.I1Kind:
		return bld.CreateCast(ir.OpZExt, v, "")
	case ir.PtrKind:
		return bld.CreateCast(ir.OpP2I, v, "")
	default:
		return v
	}
}

// FromBits emits the cast recovering a value of type ty from the raw i64
// cell contents raw.
func FromBits(bld *ir.Builder, raw ir.Value, ty *ir.Type) ir.Value {
	switch ty.Kind {
	case ir.F64Kind:
		return bld.CreateCast(ir.OpBitsF, raw, "")
	case ir.I1Kind:
		return bld.CreateCast(ir.OpTrunc, raw, "")
	case ir.PtrKind:
		return bld.CreateIntToPtr(raw, ty.Elem, "")
	default:
		return raw
	}
}
