package interp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file is the memory as this package shipped it until the page
// table: a page map split over 64 RWMutex shards, pages created on first
// write, and in front of it a per-context 8-slot direct-mapped cache of
// page slices picked by page % 8. It is the oracle
// TestPageTableMatchesReference holds the page table to, value for value
// and fingerprint for fingerprint, on every address the old memory
// served without panicking: [0, memBytes).

const refShardCount = 64

type refPages struct {
	shards [refShardCount]refShard
}

type refShard struct {
	mu    sync.RWMutex
	pages map[int64][]uint64
}

func (ps *refPages) shard(page int64) *refShard {
	return &ps.shards[uint64(page)%refShardCount]
}

func (ps *refPages) get(page int64) []uint64 {
	s := ps.shard(page)
	s.mu.RLock()
	p := s.pages[page]
	s.mu.RUnlock()
	return p
}

func (ps *refPages) getOrCreate(page int64) []uint64 {
	s := ps.shard(page)
	s.mu.RLock()
	p := s.pages[page]
	s.mu.RUnlock()
	if p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pages[page]; p != nil {
		return p
	}
	p = make([]uint64, pageCells)
	if s.pages == nil {
		s.pages = map[int64][]uint64{}
	}
	s.pages[page] = p
	return p
}

const refCacheSize = 8

// refContext is one execution context's view of refPages.
type refContext struct {
	pages *refPages
	keys  [refCacheSize]int64
	slots [refCacheSize][]uint64
}

func (c *refContext) writeCell(addr int64, v uint64) {
	cell := addr >> 3
	page := cell / pageCells
	slot := uint64(page) % refCacheSize
	p := c.slots[slot]
	if p == nil || c.keys[slot] != page {
		p = c.pages.getOrCreate(page)
		c.keys[slot], c.slots[slot] = page, p
	}
	p[cell%pageCells] = v
}

func (c *refContext) readCell(addr int64) uint64 {
	cell := addr >> 3
	page := cell / pageCells
	slot := uint64(page) % refCacheSize
	p := c.slots[slot]
	if p == nil || c.keys[slot] != page {
		p = c.pages.get(page)
		if p == nil {
			return 0
		}
		c.keys[slot], c.slots[slot] = page, p
	}
	return p[cell%pageCells]
}

func (c *refContext) bulkRun(addr, n int64) []uint64 {
	cell := addr >> 3
	off := cell % pageCells
	return c.pages.getOrCreate(cell / pageCells)[off:min(off+n, pageCells)]
}

// fingerprint is image.fingerprint over the reference's cells.
func (c *refContext) fingerprint(img *image) uint64 {
	type ga struct {
		name       string
		addr, size int64
	}
	var gs []ga
	for g, a := range img.globalAddr {
		gs = append(gs, ga{g.Nam, a, int64(g.Elem.Size())})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	h := uint64(14695981039346656037)
	for _, g := range gs {
		for off := int64(0); off < g.size; off += 8 {
			h ^= c.readCell(g.addr + off)
			h *= 1099511628211
		}
	}
	return h
}

// refModule has globals with initializers, one spanning pages, and
// zero-initialized ones laid out after them.
func refModule(t *testing.T) *Interp {
	t.Helper()
	var init []string
	for i := 0; i < 2500; i++ {
		init = append(init, fmt.Sprint(i*7+1))
	}
	return mustParse(t, `module "m"
global @small : [3 x i64] = { 5, 6, 7 }
global @big : [2500 x i64] = { `+strings.Join(init, ", ")+` }
global @zeros : [3000 x i64] zeroinit
global @f : f64 = { 2.5 }
func @main() i64 {
entry:
  ret 0
}`)
}

// TestPageTableMatchesReference drives the page table and the reference
// through one seeded random sequence of reads, writes and bulk runs, from
// two contexts each (the root and a forked worker, each with its own copy
// of the top level or its own cache): on globals, allocas off the root's
// stack, pages never written, far pages that grow the top level,
// unaligned addresses and bulk runs that cross a page boundary. Every
// read, every bulk run and the final fingerprint must agree, and so must
// every touched cell read back through a fresh context; the allocas,
// popped and pushed again, read zero.
func TestPageTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := refModule(t)
			ctxs := []*Interp{root, root.fork(nil, false, nil, 0)}
			ref := &refPages{}
			refs := []*refContext{{pages: ref}, {pages: ref}}
			for g, addr := range root.img.globalAddr {
				for off := int64(0); off < int64(g.Elem.Size()); off += 8 {
					refs[0].writeCell(addr+off, root.img.readCell(addr+off))
				}
			}
			var globals [][2]int64
			for g, addr := range root.img.globalAddr {
				globals = append(globals, [2]int64{addr, int64(g.Elem.Size())})
			}
			sort.Slice(globals, func(i, j int) bool { return globals[i][0] < globals[j][0] })
			var allocas [][2]int64
			sp := root.sp
			pushAllocas := func() {
				allocas = allocas[:0]
				for _, size := range []int64{8, 24, 8 * pageCells, 8*pageCells + 40, 3 * 8 * pageCells} {
					addr, ok := root.alloca(size)
					if !ok {
						t.Fatalf("alloca of %d bytes overflows the root's stack", size)
					}
					allocas = append(allocas, [2]int64{addr, size})
				}
			}
			pushAllocas()
			// pick draws an address and the number of cells a bulk run
			// from it may take.
			pick := func() (int64, int64) {
				switch rng.Intn(6) {
				case 0:
					g := globals[rng.Intn(len(globals))]
					return g[0] + 8*rng.Int63n(g[1]/8), 1 + rng.Int63n(64)
				case 1:
					a := allocas[rng.Intn(len(allocas))]
					return a[0] + 8*rng.Int63n(a[1]/8), 1 + rng.Int63n(64)
				case 2: // near a page boundary
					page := 1 + rng.Int63n(8)
					return page*8*pageCells - 8*rng.Int63n(16), 1 + rng.Int63n(2*pageCells)
				case 3: // a far page, most never written: grows the top level
					return 8 * (1<<20 + rng.Int63n(memCells-1<<20-4*pageCells)), 1 + rng.Int63n(8)
				case 4: // unaligned
					return 8 + rng.Int63n(8*5000), 1 + rng.Int63n(8)
				}
				return 8 * (memCells - 1 - rng.Int63n(2*pageCells)), 1 // the top of memory
			}
			touched := map[int64]bool{}
			for step := 0; step < 20000; step++ {
				c := rng.Intn(2)
				it, rc := ctxs[c], refs[c]
				addr, n := pick()
				switch op := rng.Intn(4); op {
				case 0:
					got, ok := it.readCell(addr)
					if want := rc.readCell(addr); !ok || got != want {
						t.Fatalf("step %d: read %d = %d (ok %v), reference %d", step, addr, got, ok, want)
					}
				case 1:
					v := rng.Uint64()
					if !it.writeCell(addr, v) {
						t.Fatalf("step %d: write %d refused", step, addr)
					}
					rc.writeCell(addr, v)
					touched[addr>>3] = true
				case 2, 3: // a bulk transfer, run by run as pushRuns and popRuns take it
					if uint64(addr)>>3+uint64(n) > memCells {
						n = memCells - int64(uint64(addr)>>3)
					}
					if err := checkBulk("bulk", addr, n); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for a, left := addr, n; left > 0; {
						got, want := it.bulkRun(a, left), rc.bulkRun(a, left)
						if len(got) != len(want) {
							t.Fatalf("step %d: run at %d is %d cells, reference %d", step, a, len(got), len(want))
						}
						for i := range got {
							if op == 3 {
								v := rng.Uint64()
								got[i], want[i] = v, v
								touched[a>>3+int64(i)] = true
							} else if got[i] != want[i] {
								t.Fatalf("step %d: run at %d cell %d = %d, reference %d", step, a, i, got[i], want[i])
							}
						}
						a, left = a+8*int64(len(got)), left-int64(len(got))
					}
				}
			}
			if got, want := root.MemoryFingerprint(), refs[0].fingerprint(root.img); got != want {
				t.Errorf("fingerprint %#x, reference %#x", got, want)
			}
			// Pop the allocas and push them again: every cell reads zero.
			root.sp = sp
			pushAllocas()
			for _, a := range allocas {
				for addr := a[0]; addr < a[0]+a[1]; addr += 8 {
					if got, _ := root.readCell(addr); got != 0 {
						t.Fatalf("re-pushed alloca cell %d reads %d", addr, got)
					}
					refs[0].writeCell(addr, 0)
				}
			}
			fresh, freshRef := root.fork(nil, false, nil, 0), &refContext{pages: ref}
			fresh.leaves = nil
			for cell := range touched {
				if got, _ := fresh.readCell(cell << 3); got != freshRef.readCell(cell<<3) {
					t.Fatalf("cell %d reads %d through a fresh context, reference %d", cell, got, freshRef.readCell(cell<<3))
				}
			}
		})
	}
	// A callee's alloca, popped when it returns and pushed again by the
	// next call at the same address, reads zero there on both tiers,
	// though the first call wrote it.
	t.Run("popped_alloca_reads_zero", func(t *testing.T) {
		m := parseModule(t, `module "m"
declare @print_i64 : fn(i64) void
func @g(%v: i64) i64 {
entry:
  %a = alloca i64, 2000
  %p = ptradd %a, 1500
  %old = load i64, %p
  store i64 %v, %p
  %addr = p2i %a
  call void @print_i64(%addr)
  ret %old
}
func @main() i64 {
entry:
  %x = call i64 @g(5)
  call void @print_i64(%x)
  %y = call i64 @g(6)
  call void @print_i64(%y)
  ret 0
}`)
		r := assertTiersAgree(t, m, nil)
		lines := strings.Fields(r.output)
		if r.err != "" || len(lines) != 4 || lines[0] != lines[2] || lines[1] != "0" || lines[3] != "0" {
			t.Errorf("error %q, output %q; want the same alloca address twice and two zeros", r.err, r.output)
		}
	})
}

// TestPageTableFirstTouchRace: goroutines on their own contexts write
// disjoint cells of one page nobody has written, in a leaf the top level
// does not reach yet, all released at once, so page installs and the
// top level's growth race. Every write must survive. `make tier-diff`
// runs it under -race.
func TestPageTableFirstTouchRace(t *testing.T) {
	const workers = 8
	for round := 0; round < 20; round++ {
		root := refModule(t)
		base := int64(8 * (memCells/2 + int64(round)*leafPages*pageCells)) // a fresh leaf each round
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := int64(0); w < workers; w++ {
			wk := root.fork(nil, false, nil, 0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for cell := w; cell < pageCells; cell += workers {
					wk.writeCell(base+8*cell, uint64(cell)+1)
				}
				// and a page of its own in the same leaf
				wk.writeCell(base+8*pageCells*(1+w), uint64(w)+1)
			}()
		}
		close(start)
		wg.Wait()
		for cell := int64(0); cell < pageCells; cell++ {
			if got, _ := root.readCell(base + 8*cell); got != uint64(cell)+1 {
				t.Fatalf("round %d: cell %d reads %d, want %d", round, cell, got, cell+1)
			}
		}
		for w := int64(0); w < workers; w++ {
			if got, _ := root.readCell(base + 8*pageCells*(1+w)); got != uint64(w)+1 {
				t.Fatalf("round %d: worker %d's own page reads %d", round, w, got)
			}
		}
	}
}
