package memctrl

// Intrusive request queues. Each direction (reads, writes) keeps its
// requests on two doubly-linked lists at once, threaded through the
// Request itself so queue maintenance never allocates:
//
//   - a global list in arrival order, which preserves the exact
//     FR-FCFS/FCFS age ordering and drives the write-drain watermarks,
//     and
//   - one list per (rank, bank), which lets the scheduling passes visit
//     only banks that have pending work and makes dequeue an O(1)
//     unlink instead of the former O(n) ordered slice delete.
//
// The `active` slice is the compact set of bank indexes with at least
// one queued request; scans iterate it instead of the full bank array.
// Its order is maintained by swap-removal and therefore arbitrary, but
// that never affects scheduling: candidate requests collected from it
// are re-sorted by arrival (seqNo) before any timing probe fires.
//
// Each bank list also carries two summaries the scheduler reads instead
// of walking the list:
//
//   - nHit, the number of queued requests whose row is the bank's open
//     row. The controller keeps it exact: push and unlink take the open
//     row into account, and the controller recounts the bank after every
//     ACT, PRE and auto-precharge it issues (no other agent issues
//     commands to its channel). hitMask marks the banks with nHit > 0,
//     the only ones the row-hit pass visits.
//   - oldestDemand, the oldest queued non-prefetch request. Arrive is
//     non-decreasing along the list, so when the head is an unaged
//     prefetch every prefetch behind it is unaged too, and the bank's
//     oldest promoted request is oldestDemand.

// bankList heads the per-(rank,bank) request list of one direction.
type bankList struct {
	head, tail   *Request
	oldestDemand *Request // oldest queued non-prefetch request, nil if none
	nHit         int      // queued requests whose row is the bank's open row
	activePos    int32    // index into reqQueue.active, -1 while empty
	claimStamp   uint64
}

// reqQueue is one direction's request queue (all reads or all writes).
type reqQueue struct {
	head, tail *Request
	n          int
	nPrefetch  int
	banks      []bankList
	active     []int32
	hitMask    []uint64 // bit bi set iff banks[bi].nHit > 0
}

func (q *reqQueue) init(nBanks int) {
	q.banks = make([]bankList, nBanks)
	for i := range q.banks {
		q.banks[i].activePos = -1
	}
	q.active = make([]int32, 0, nBanks)
	q.hitMask = make([]uint64, (nBanks+63)/64)
}

// setHits sets bank bi's hit count and its hitMask bit.
func (q *reqQueue) setHits(bi, n int) {
	q.banks[bi].nHit = n
	if n > 0 {
		q.hitMask[bi>>6] |= 1 << uint(bi&63)
	} else {
		q.hitMask[bi>>6] &^= 1 << uint(bi&63)
	}
}

// push appends r (arriving now, newest) to both lists. bi is the flat
// rank*banks+bank index of r's target bank, and open that bank's open
// row (-1 when precharged).
func (q *reqQueue) push(r *Request, bi int, open int64) {
	r.next, r.prev = nil, q.tail
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	q.n++
	if r.Prefetch {
		q.nPrefetch++
	}

	bq := &q.banks[bi]
	r.bankNext, r.bankPrev = nil, bq.tail
	if bq.tail != nil {
		bq.tail.bankNext = r
	} else {
		bq.head = r
		bq.activePos = int32(len(q.active))
		q.active = append(q.active, int32(bi))
	}
	bq.tail = r
	if !r.Prefetch && bq.oldestDemand == nil {
		bq.oldestDemand = r
	}
	if r.Coord.Row == open {
		q.setHits(bi, bq.nHit+1)
	}
}

// unlink removes r from both lists and clears its link fields. hit
// reports whether r's row is its bank's open row. It is O(1) except
// when r is the bank's oldest demand, whose successor is found by
// walking forward to the next demand.
func (q *reqQueue) unlink(r *Request, bi int, hit bool) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		q.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		q.tail = r.prev
	}
	q.n--
	if r.Prefetch {
		q.nPrefetch--
	}

	bq := &q.banks[bi]
	if r == bq.oldestDemand {
		d := r.bankNext
		for d != nil && d.Prefetch {
			d = d.bankNext
		}
		bq.oldestDemand = d
	}
	if hit {
		q.setHits(bi, bq.nHit-1)
	}
	if r.bankPrev != nil {
		r.bankPrev.bankNext = r.bankNext
	} else {
		bq.head = r.bankNext
	}
	if r.bankNext != nil {
		r.bankNext.bankPrev = r.bankPrev
	} else {
		bq.tail = r.bankPrev
	}
	r.next, r.prev, r.bankNext, r.bankPrev = nil, nil, nil, nil

	if bq.head == nil {
		// Swap-remove this bank from the active set, repointing the
		// entry that takes its slot.
		last := len(q.active) - 1
		moved := q.active[last]
		q.active[bq.activePos] = moved
		q.banks[moved].activePos = bq.activePos
		q.active = q.active[:last]
		bq.activePos = -1
	}
}

// recount sets bank bi's hit count for a newly opened row.
func (q *reqQueue) recount(bi int, open int64) {
	n := 0
	for r := q.banks[bi].head; r != nil; r = r.bankNext {
		if r.Coord.Row == open {
			n++
		}
	}
	q.setHits(bi, n)
}
