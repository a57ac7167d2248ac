package detect

import (
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// This file implements an Atomizer-style dynamic atomicity-violation
// detector (Flanagan & Freund, POPL 2004 — reference [11] of the paper):
// a developer declares blocks that should be serializable with
// BeginAtomic/EndAtomic, and the detector reports an observed
// unserializable pattern — a cell accessed inside the block, then
// conflictingly accessed by another goroutine, then accessed again by
// the block. That three-access pattern (e.g. read-write'-read, the
// StringBuffer stale-length shape) cannot be reordered into a serial
// execution of the block.
//
// Methodology I uses these reports exactly like race reports: the two
// outer sites become the breakpoint sides, with the interferer ordered
// into the block's window.

// atomicBlock tracks one goroutine's active atomic block.
type atomicBlock struct {
	gid  uint64
	name string
	// accessed records the block's accesses: cell -> strongest op seen
	// (write dominates read) and the first access site.
	accessed map[*memory.Cell]blockAccess
	// interfered records conflicting accesses by other goroutines since
	// the block accessed the cell: cell -> interfering site.
	interfered map[*memory.Cell]string
}

type blockAccess struct {
	op   memory.Op
	site string
}

// BeginAtomic declares that the calling goroutine enters a block that
// should be serializable. Blocks do not nest; a second BeginAtomic
// replaces the first.
func (d *Detector) BeginAtomic(name string) {
	gid := locks.GoroutineID()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.atomic == nil {
		d.atomic = make(map[uint64]*atomicBlock)
	}
	d.atomic[gid] = &atomicBlock{
		gid:        gid,
		name:       name,
		accessed:   make(map[*memory.Cell]blockAccess),
		interfered: make(map[*memory.Cell]string),
	}
}

// EndAtomic closes the calling goroutine's atomic block.
func (d *Detector) EndAtomic() {
	gid := locks.GoroutineID()
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.atomic, gid)
}

// atomicityCheck processes one access for the atomicity detector; the
// caller holds d.mu.
func (d *Detector) atomicityCheck(gid uint64, c *memory.Cell, op memory.Op, site string) {
	blk := d.atomic[gid]
	if blk != nil {
		if interferer, hit := blk.interfered[c]; hit {
			// Third access of an unserializable pattern.
			first := blk.accessed[c]
			d.report(Report{
				Kind:  KindAtomicity,
				Var:   c.Name(),
				Site1: interferer,
				Site2: site,
				Held1: blk.name,
				Held2: first.site,
			})
			delete(blk.interfered, c)
		}
		prev, seen := blk.accessed[c]
		if !seen || op == memory.Write {
			blk.accessed[c] = blockAccess{op: op, site: site}
		} else {
			_ = prev
		}
	}
	// Record interference against every other goroutine's active block.
	for otherGid, other := range d.atomic {
		if otherGid == gid {
			continue
		}
		if first, ok := other.accessed[c]; ok {
			if op == memory.Write || first.op == memory.Write {
				other.interfered[c] = site
			}
		}
	}
}
