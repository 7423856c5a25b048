package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for none) and Op numbers the operation it belongs to, so
// the spans of one compile op or one request can be pulled out together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps the spans of one traced run in memory until the run ends.
// A nil *spans is the untraced pass: begin and end do nothing.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (s *spans) begin(name string, parent, op int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took; it times fn
// the same way when untraced.
func (s *spans) timed(name string, parent, op int, fn func()) time.Duration {
	id := s.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	s.end(id)
	return d
}

// byName returns the duration in ms of every span called name, in
// recording order.
func (s *spans) byName(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

func (s *spans) write(path string) error {
	s.mu.Lock()
	data, err := json.Marshal(s.list)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes gives each span's self time in ns: its duration minus the
// part of its interval that its child spans cover. Children that overlap
// each other (parallel work) are counted once, and a child is clipped to
// its parent's interval.
func selfTimes(list []span) map[int]int64 {
	children := map[int][]span{}
	for _, sp := range list {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	self := make(map[int]int64, len(list))
	for _, sp := range list {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[sp.ID] = sp.End - sp.Start - covered
	}
	return self
}

// spanCoverage is the share of the ops' wall that their direct child
// spans account for: how much of a compile op the per-layer spans see.
func spanCoverage(sp *spans, opName string) float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	self := selfTimes(sp.list)
	var total, uncovered int64
	for _, s := range sp.list {
		if s.Name == opName {
			total += s.End - s.Start
			uncovered += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(total)
}
