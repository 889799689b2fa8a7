package memctrl

// poolSlabSize is how many Requests one arena slab holds. Requests are
// ~9 cache lines, so a slab keeps a few hundred in-flight requests in
// one contiguous allocation without over-reserving small configs.
const poolSlabSize = 64

// Pool is a deterministic LIFO freelist of Requests backed by slab
// arenas. The simulator's hot path allocates one or two Requests per
// line fill; recycling them keeps steady-state simulation
// allocation-free, and carving fresh requests from contiguous slabs
// (instead of one heap object each) keeps the live set packed so the
// controller's queue walks hit adjacent cache lines. A plain slice (not
// sync.Pool) makes reuse order — and therefore every run — bit-for-bit
// reproducible, and no locking is needed because the engine is
// single-threaded. Each controller keeps its own pool, so a channel's
// requests are carved from slabs that hold only that channel's traffic.
//
// A Controller with a non-nil Pool returns each request to it as soon as
// the request is dead: at issue for posted writes, after the completion
// callback has been dispatched for reads. Callers must not retain a
// request past its completion callback.
type Pool struct {
	free []*Request
	slab []Request // tail of the current arena slab, carved front-first
}

// Get returns a zeroed Request, reusing a freed one when available and
// carving from the current slab otherwise.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		*r = Request{}
		return r
	}
	if len(p.slab) == 0 {
		p.slab = make([]Request, poolSlabSize)
	}
	r := &p.slab[0]
	p.slab = p.slab[1:]
	return r
}

// Put returns a dead request to the freelist.
func (p *Pool) Put(r *Request) {
	p.free = append(p.free, r)
}
