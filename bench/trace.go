package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Calls holds how many wrapped calls an
// aggregate span stands for: the dist and mica wrappers fire millions
// of times per rep, so they are kept as one span per run and layer
// whose length is the summed net time, laid at the start of its parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"` // the simulation or round the span belongs to
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run,
		Start: now().Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = now().Sub(t.epoch).Nanoseconds()
}

// aggregate records the summed time of calls wrapped calls as one child
// of parent.
func (t *tracer) aggregate(name string, parent int, total time.Duration, calls int64) {
	if t == nil || parent == 0 || calls == 0 {
		return
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Run: p.Run,
		Start: p.Start, End: p.Start + total.Nanoseconds(), Calls: calls,
	})
}

// selfTimes returns each span's length minus the part its children
// cover, indexed like spans.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// check verifies the span arithmetic: every child lies inside its
// parent and no self time is negative.
func (t *tracer) check() error {
	for i, self := range t.selfTimes() {
		s := t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent > 0 {
			p := t.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("trace: span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		if self < 0 {
			return fmt.Errorf("trace: span %d (%s) has self time %d ns", s.ID, s.Name, self)
		}
	}
	return nil
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
