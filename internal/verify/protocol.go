package verify

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"noelle/internal/interp"
	"noelle/internal/ir"
)

// MDProtocol is the metadata key of a lowering's protocol record, on the
// noelle_dispatch call that runs the lowering: the function holding the
// call is the host, the dispatched function the task (DOALL, HELIX) or
// the stage demultiplexer (DSWP).
const MDProtocol = "noelle.protocol"

// The techniques a protocol record names.
const (
	DOALL = "doall"
	DSWP  = "dswp"
	HELIX = "helix"
)

// Protocol is the communication protocol one lowering emitted, declared
// by the lowering itself: the comm tier checks the generated IR against
// it, and the miscompile table finds its mutation sites through it.
// Environment slots index the block the host passes to noelle_dispatch.
type Protocol struct {
	// Technique is DOALL, DSWP or HELIX.
	Technique string
	// Tasks names a pipeline's stage functions in stage order. A DOALL or
	// HELIX lowering's one task is the function its dispatch call runs, so
	// its record names none.
	Tasks []string
	// K is the iterations one bulk queue operation of a pipeline moves.
	K int64
	// Queues are a pipeline's queues.
	Queues []Queue
	// MemDeps are the plan's cross-stage memory dependences as (from, to)
	// stage pairs, from < to: the token chain must cover each.
	MemDeps [][2]int
	// Signals and Carried map a HELIX task's segment signals and its
	// cells of carried sequential state to their segment.
	Signals, Carried []Cell
}

// Queue is one pipeline queue: the slot its handle is shipped through,
// whether it carries one token per chunk (else staged values), and its
// producing and consuming stages.
type Queue struct {
	Slot     int64
	Token    bool
	From, To int
}

// Role names what the queue carries.
func (q Queue) Role() string {
	if q.Token {
		return "token"
	}
	return "value"
}

// Cell ties an environment slot to a sequential segment.
type Cell struct {
	Slot int64
	Seg  int
}

// Encode renders p as the value of MDProtocol, e.g.
//
//	dswp tasks=f.stage0,f.stage1 k=128 queues=3:value:0>1,4:token:0>1 memdeps=0>1
//	helix signals=5:0 carried=7:0
//
// ParseProtocol reads it back.
func (p *Protocol) Encode() string {
	var b strings.Builder
	b.WriteString(p.Technique)
	field := func(key string, n int, item func(i int) string) {
		for i := 0; i < n; i++ {
			sep := ","
			if i == 0 {
				sep = " " + key + "="
			}
			b.WriteString(sep + item(i))
		}
	}
	field("tasks", len(p.Tasks), func(i int) string { return p.Tasks[i] })
	if p.K != 0 {
		fmt.Fprintf(&b, " k=%d", p.K)
	}
	field("queues", len(p.Queues), func(i int) string {
		q := p.Queues[i]
		return fmt.Sprintf("%d:%s:%d>%d", q.Slot, q.Role(), q.From, q.To)
	})
	field("memdeps", len(p.MemDeps), func(i int) string { return fmt.Sprintf("%d>%d", p.MemDeps[i][0], p.MemDeps[i][1]) })
	field("signals", len(p.Signals), func(i int) string { return fmt.Sprintf("%d:%d", p.Signals[i].Slot, p.Signals[i].Seg) })
	field("carried", len(p.Carried), func(i int) string { return fmt.Sprintf("%d:%d", p.Carried[i].Slot, p.Carried[i].Seg) })
	return b.String()
}

// ParseProtocol reads a record Encode wrote and checks that it is one a
// lowering could have emitted: a known technique, a pipeline's two or
// more stages and K >= 1, no tasks named by any other record, stages within the pipeline, token queues
// linking adjacent stages, value queues flowing forward, one signal per
// segment and carried cells of existing segments.
func ParseProtocol(s string) (*Protocol, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, errors.New("empty record")
	}
	p := &Protocol{Technique: fields[0]}
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || val == "" || seen[key] {
			return nil, fmt.Errorf("malformed field %q", f)
		}
		seen[key] = true
		var err error
		for _, item := range strings.Split(val, ",") {
			switch key {
			case "tasks":
				p.Tasks = append(p.Tasks, item)
			case "k":
				p.K, err = strconv.ParseInt(val, 10, 64)
			case "queues":
				var q Queue
				parts := strings.Split(item, ":")
				if len(parts) != 3 || (parts[1] != "token" && parts[1] != "value") {
					return nil, fmt.Errorf("malformed queue %q", item)
				}
				q.Token = parts[1] == "token"
				q.Slot, err = nonNegative(parts[0])
				if err == nil {
					q.From, q.To, err = pair(parts[2], ">")
				}
				p.Queues = append(p.Queues, q)
			case "memdeps":
				var d [2]int
				d[0], d[1], err = pair(item, ">")
				p.MemDeps = append(p.MemDeps, d)
			case "signals", "carried":
				var slot, seg int
				slot, seg, err = pair(item, ":")
				c := Cell{Slot: int64(slot), Seg: seg}
				if key == "signals" {
					p.Signals = append(p.Signals, c)
				} else {
					p.Carried = append(p.Carried, c)
				}
			default:
				return nil, fmt.Errorf("unknown field %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("field %s: %v", key, err)
			}
		}
	}
	return p, p.check()
}

// pair reads "a<sep>b" as two non-negative integers.
func pair(s, sep string) (int, int, error) {
	a, b, ok := strings.Cut(s, sep)
	if !ok {
		return 0, 0, fmt.Errorf("malformed pair %q", s)
	}
	x, err := nonNegative(a)
	if err != nil {
		return 0, 0, err
	}
	y, err := nonNegative(b)
	return int(x), int(y), err
}

func nonNegative(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%q is not a non-negative index", s)
	}
	return v, nil
}

// check holds a parsed record to what a lowering can emit.
func (p *Protocol) check() error {
	n := len(p.Tasks)
	switch {
	case p.Technique != DOALL && p.Technique != DSWP && p.Technique != HELIX:
		return fmt.Errorf("unknown technique %q", p.Technique)
	case p.Technique == DSWP && (n < 2 || p.K < 1):
		return fmt.Errorf("a pipeline needs two stages and K >= 1 (have %d stages, K=%d)", n, p.K)
	case p.Technique != DSWP && n != 0:
		return fmt.Errorf("a %s record names no tasks: its task is the dispatched function", p.Technique)
	case p.Technique != DSWP:
		n = 1
	}
	for _, q := range p.Queues {
		switch {
		case q.From >= n || q.To >= n:
			return fmt.Errorf("%s queue (slot %d) links stage %d to stage %d of a %d-stage pipeline", q.Role(), q.Slot, q.From, q.To, n)
		case q.Token && q.To != q.From+1:
			return fmt.Errorf("token queue (slot %d) links stage %d to stage %d (token queues must link adjacent stages)", q.Slot, q.From, q.To)
		case q.To <= q.From:
			return fmt.Errorf("value queue (slot %d) does not flow forward through the pipeline (stage %d to stage %d)", q.Slot, q.From, q.To)
		}
	}
	for _, d := range p.MemDeps {
		if d[0] >= d[1] || d[1] >= n {
			return fmt.Errorf("memory dependence %d>%d does not run forward within the pipeline", d[0], d[1])
		}
	}
	segs := map[int]bool{}
	for _, sig := range p.Signals {
		if sig.Seg >= len(p.Signals) || segs[sig.Seg] {
			return fmt.Errorf("signal for segment %d: the %d segments want one signal each", sig.Seg, len(p.Signals))
		}
		segs[sig.Seg] = true
	}
	for _, c := range p.Carried {
		if !segs[c.Seg] {
			return fmt.Errorf("carried cell %d belongs to segment %d, which has no signal", c.Slot, c.Seg)
		}
	}
	return nil
}

// Lowering is one noelle_dispatch call stamped with a protocol record.
type Lowering struct {
	Host *ir.Function
	Call *ir.Instr
	// Proto is the parsed record and Tasks its task functions (the
	// pipeline's stages, or the dispatched function), unless Err says why
	// the record does not parse or a task is not a function the module
	// defines.
	Proto *Protocol
	Tasks []*ir.Function
	Err   error
}

// Lowerings returns the stamped dispatch calls of m in module order.
// Code without a record is outside the comm tier's jurisdiction: it
// constrains what the lowerings emit, not what users write.
func Lowerings(m *ir.Module) []*Lowering {
	var out []*Lowering
	m.Instrs(func(host *ir.Function, in *ir.Instr) bool {
		if callee := in.CalledFunction(); callee == nil || callee.Nam != interp.ExternDispatch ||
			len(in.CallArgs()) != 3 || !in.MD.Has(MDProtocol) {
			return true
		}
		l := &Lowering{Host: host, Call: in}
		l.Proto, l.Err = ParseProtocol(in.MD.Get(MDProtocol))
		if l.Err == nil && l.Proto.Technique != DSWP {
			fn, _ := in.CallArgs()[0].(*ir.Function)
			l.task(fn, in.CallArgs()[0].Ident())
		}
		for i := 0; l.Err == nil && i < len(l.Proto.Tasks); i++ {
			l.task(m.FunctionByName(l.Proto.Tasks[i]), "@"+l.Proto.Tasks[i])
		}
		out = append(out, l)
		return true
	})
	return out
}

// task appends f, the task called name, to l's tasks, or sets l.Err
// when it is not a function the module defines.
func (l *Lowering) task(f *ir.Function, name string) {
	if f == nil || f.IsDeclaration() {
		l.Err = fmt.Errorf("task %s is not a function of the module", name)
		return
	}
	l.Tasks = append(l.Tasks, f)
}

// Site finds task's first call to extern on the handle shipped through
// slot, inside a loop of the task (inLoop) or outside every loop: where a
// record's queue or signal is operated on.
func (l *Lowering) Site(task int, slot int64, extern string, inLoop bool) *ir.Instr {
	t := scanTask(l.Tasks[task])
	for _, o := range t.ops[slot] {
		if o.name == extern && (t.li.LoopOf(o.instr.Parent) != nil) == inLoop {
			return o.instr
		}
	}
	return nil
}
