// Package core is a commitvet fixture: a planner file that must go through
// the engines. Lines marked "want" are findings; everything else is clean.
package core

import (
	"encoding/binary"
	"sort"
	srt "sort"
)

type pool struct{}

func (pool) Begin(clk int) int                        { return 0 }
func (pool) Alloc(tx, n int) int                      { return 0 }
func (pool) Free(tx, id int) error                    { return nil }
func (pool) Slice(off, n int) ([]byte, error)         { return nil, nil }
func (pool) Overwrite(off, n int) ([]byte, error)     { return nil, nil }
func (pool) Update(clk int, key []byte) int           { return 0 }
func (pool) UpdateAt(clk int, key []byte, at int) int { return 0 }
func (pool) Put(clk int, key, val []byte) error       { return nil }
func (pool) Delete(clk int, key []byte) bool          { return false }

// Alloc with three arguments is the public dims declaration, not the pool API.
func Alloc(id string, dtype int, dims []int) {}

type view struct{}

func (pool) LoadView(id string) (*view, error) { return nil, nil }
func (*view) Close()                           {}

func planner(p pool, xs []int) {
	tx := p.Begin(0)          // want tx
	_ = p.Alloc(tx, 8)        // want tx
	_ = p.Free(tx, 1)         // want tx
	_, _ = p.Slice(0, 8)      // want slice
	_, _ = p.Overwrite(0, 8)  // want slice
	_ = p.Update(0, nil)      // want tx
	_ = p.UpdateAt(0, nil, 0) // want tx
	_ = p.Put(0, nil, nil)    // want tx
	_ = p.Delete(0, nil)      // want tx

	// Not the pool API: wrong arity, a bare call, a package function.
	Alloc("x", 0, nil)
	_ = p.Delete
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	srt.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })

	go planner(p, xs) // want go

	// A view whose lease nobody can close, and two that can be.
	p.LoadView("x")        // want lease
	_, _ = p.LoadView("x") // want lease
	defer p.LoadView("x")  // want lease
	v, _ := p.LoadView("x")
	defer v.Close()

	_ = p.Begin(0) //commitvet:ignore (same line)
	//commitvet:ignore (line above)
	_, _ = p.Slice(0, 8)
}

type clock struct{}

func (clock) Advance(d int) {}

// A planner charges through a sim.Machine method, never the clock itself.
func charges(clk clock) {
	clk.Advance(5) // want charge
}

// A planner neither decodes persisted bytes nor asks which layout it runs on.
func layoutBlind(l Layout, raw []byte) Layout {
	_ = binary.LittleEndian.Uint32(raw) // want record
	_ = raw[0] == inlineTag             // want record
	if l == LayoutHierarchy {           // want layout
		return l
	}
	switch l {
	case LayoutHashtable: // want layout
	}
	return l
}
