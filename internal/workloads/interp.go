package workloads

import (
	"hpmp/internal/addr"
	"hpmp/internal/kernel"
)

// interp models the CPython runtime behaviour that dominates
// FunctionBench: every bytecode-level operation dereferences object
// headers, type objects, and reference counts scattered across a large
// allocator heap. Each op() touches two pseudo-random heap slots (object +
// type) and charges dispatch compute — which is what makes the paper's
// Python functions TLB-hungry even when their "payload" data is small.
type interp struct {
	e     *kernel.Env
	heap  addr.VA
	slots uint64
	r     *rng
}

// newInterp builds an interpreter heap of the given page count and
// pre-faults it (the runtime exists before the function body runs; its
// *translations* are still cold per process).
func newInterp(e *kernel.Env, pages int) (*interp, error) {
	ip := &interp{
		e:     e,
		heap:  e.Alloc(uint64(pages) * addr.PageSize),
		slots: uint64(pages) * addr.PageSize / 8,
		r:     newRNG(0xa11a),
	}
	if err := e.Touch(ip.heap, uint64(pages)*addr.PageSize); err != nil {
		return nil, err
	}
	return ip, nil
}

// newInterpSnapshot builds the heap as a snapshot-restored runtime: memory
// already present at zero cycle cost, translations cold. This is how
// chained serverless platforms start warm function instances.
func newInterpSnapshot(e *kernel.Env, pages int) (*interp, error) {
	ip := &interp{
		e:     e,
		heap:  e.Alloc(uint64(pages) * addr.PageSize),
		slots: uint64(pages) * addr.PageSize / 8,
		r:     newRNG(0xa11a),
	}
	if err := e.PrefaultQuiet(ip.heap, uint64(pages)*addr.PageSize); err != nil {
		return nil, err
	}
	return ip, nil
}

// op executes one interpreted operation: object-header and type-object
// loads plus bytecode dispatch.
func (ip *interp) op() {
	for i := 0; i < 2; i++ {
		slot := ip.r.next() % ip.slots
		ip.e.Load64(ip.heap + addr.VA(slot*8))
	}
	ip.e.Compute(14)
}

// ops executes n interpreted operations.
func (ip *interp) ops(n int) {
	for i := 0; i < n; i++ {
		ip.op()
	}
}

// defaultInterpPages is the interpreter-heap size for the Python-based
// FunctionBench functions (scaled with the rest of the workload sizes).
const defaultInterpPages = 384
