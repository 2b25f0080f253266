package hashjoin

import (
	"time"

	"multijoin/internal/relation"
	"multijoin/internal/spill"
)

// GraceFanout is the number of hash partitions a Grace join splits each
// operand into. Matching build and probe tuples land in the same partition
// index because both sides hash their own join attribute with the same
// function, so partition i of the build side joins exactly partition i of
// the probe side.
const GraceFanout = 8

// gracePartition maps a join-attribute value to its partition index at one
// recursion level. It must NOT be relation.HashKey: redistribution already
// routed tuples to this process by HashKey(v, m) over the consumer's m
// instances, so every value arriving here agrees on HashKey modulo
// gcd(m, GraceFanout) — with m = 8 instances all tuples would land in a
// single partition and Drain would rebuild the whole operand fragment in
// one table, defeating the partition-at-a-time memory bound. A
// differently-mixed (salted) hash keeps the partition index independent of
// the routing decision. Each recursion level reads a different 3-bit window
// of the same mixed hash, so a partition that re-partitions (an oversized
// partition recursing one level down) splits on bits its parent never
// looked at — with the parent's bits it would land everything in one
// sub-partition again.
func gracePartition(v int64, level int) int {
	h := (uint64(v) + 0x9e3779b97f4a7c15) * 0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int((h >> (3 * uint(level))) % GraceFanout)
}

// graceFlushTuples is how many tuples a spilled partition buffers in memory
// before appending them to its file — large enough to amortize the write
// syscall, small enough to keep a spilled partition's residency negligible.
const graceFlushTuples = 256

// gracePart is one hash partition of one operand: an in-memory columnar
// buffer and, once the partition has spilled, the overflow file. The
// buffer's meter reservation is derived from its length (mem.Len() ×
// TupleWireBytes), accounted batch-at-a-time as tuples arrive.
type gracePart struct {
	mem    relation.Batch
	file   *spill.File
	tuples int // total tuples in the partition (mem + file)
}

// memBytes is the partition's current resident meter reservation.
func (p *gracePart) memBytes() int64 {
	return int64(p.mem.Len()) * relation.TupleWireBytes
}

// Grace is the out-of-core join of the spill runtime: a Grace-style
// partitioned hash join [DeWitt et al.] over the chain-join semantics of
// Spec. Both operands are hash-partitioned on their join attribute as they
// arrive; while the run's memory meter is over budget the largest resident
// partition is serialized to a temp file. Once both operands have ended,
// Drain processes the partitions one at a time — a simple join builds over
// partition i's build tuples (re-read from disk if spilled) and streams
// partition i's probe tuples through it — so peak memory is one partition
// pair instead of two whole operands.
//
// Grace produces the same result multiset as the in-memory joins for the
// same operands; it trades their pipelining for a memory bound, which is
// why the spill runtime uses it for *both* plan join kinds. It is not safe
// for concurrent use: the runtime drives each instance from one process.
type Grace struct {
	spec  Spec
	meter *spill.Meter
	dir   string
	pool  *relation.BatchPool
	build [GraceFanout]gracePart
	probe [GraceFanout]gracePart

	// level is the recursion depth: 0 for the runtime's join, +1 for each
	// re-partitioning of an oversized partition. It selects which bit
	// window of the partition hash this instance splits on.
	level int
	// recursions counts oversized partitions this instance re-partitioned
	// (not transitively) — a test hook.
	recursions int

	// drainBytes is the meter reservation of the drain phase's rebuilt
	// hash table (the spilled portion of the partition being re-read);
	// held only while one partition pair is being joined.
	drainBytes int64
}

// maxGraceLevel caps recursive re-partitioning depth. Each level splits on a
// fresh 3-bit hash window, so 6 levels distinguish 2^18 partitions — beyond
// that an oversized partition is almost certainly duplicate-key skew, which
// no amount of partitioning can split, and recursing further would only burn
// passes over the same data.
const maxGraceLevel = 6

// NewGrace returns a fresh Grace join writing overflow partitions into dir
// and accounting resident operand tuples against meter.
func NewGrace(spec Spec, meter *spill.Meter, dir string, pool *relation.BatchPool) *Grace {
	return &Grace{spec: spec, meter: meter, dir: dir, pool: pool}
}

// AddBuild partitions a batch of build-operand tuples.
func (g *Grace) AddBuild(batch *relation.Batch) error {
	return g.add(&g.build, g.spec.BuildAttr(), batch)
}

// AddProbe partitions a batch of probe-operand tuples.
func (g *Grace) AddProbe(batch *relation.Batch) error {
	return g.add(&g.probe, g.spec.ProbeAttr(), batch)
}

func (g *Grace) add(side *[GraceFanout]gracePart, attr relation.Attr, batch *relation.Batch) error {
	n := batch.Len()
	if n == 0 {
		return nil
	}
	// Route the whole batch first — the key column is hoisted so the
	// partition-index loop runs over a flat []int64 — then do the metering
	// and flush checks once per batch instead of once per tuple.
	keys := batch.Col(attr)
	for i := 0; i < n; i++ {
		p := &side[gracePartition(keys[i], g.level)]
		p.mem.Append(batch.U1[i], batch.U2[i], batch.Check[i])
		p.tuples++
	}
	g.meter.Add(int64(n) * relation.TupleWireBytes)
	for i := range side {
		p := &side[i]
		if p.file != nil && p.mem.Len() >= graceFlushTuples {
			// The partition already lives on disk: keep its resident tail
			// bounded by flushing eagerly.
			if err := g.flush(p); err != nil {
				return err
			}
		}
	}
	for g.meter.Over() {
		spilled, err := g.spillLargest()
		if err != nil {
			return err
		}
		if !spilled {
			// Nothing spillable here: either every partition is empty, or
			// the only residents are the bounded tails of already-spilled
			// partitions (flushed by the threshold above). The meter may
			// stay over — e.g. pooled batches in flight alone can exceed a
			// forcing test budget — and flushing those tails anyway would
			// degenerate into one tiny write per input batch without ever
			// getting under budget.
			break
		}
	}
	return nil
}

// spillLargest serializes the largest spill-worthy resident partition of
// either side to its file, creating the file on first spill, and reports
// whether anything was written. A partition is spill-worthy when it has no
// file yet (first spill releases its whole backlog) or its resident tail
// reached the flush threshold; smaller tails of already-spilled partitions
// are left to the eager flush in add, so a permanently-over-budget run
// still writes in amortized graceFlushTuples-sized appends.
func (g *Grace) spillLargest() (bool, error) {
	var victim *gracePart
	for i := range g.build {
		for _, p := range [2]*gracePart{&g.build[i], &g.probe[i]} {
			if p.mem.Len() == 0 || (p.file != nil && p.mem.Len() < graceFlushTuples) {
				continue
			}
			if victim == nil || p.mem.Len() > victim.mem.Len() {
				victim = p
			}
		}
	}
	if victim == nil {
		return false, nil
	}
	return true, g.flush(victim)
}

// flush appends a partition's resident tuples to its file (created on first
// use) and releases their meter reservation.
func (g *Grace) flush(p *gracePart) error {
	if p.mem.Len() == 0 {
		return nil
	}
	start := time.Now()
	if p.file == nil {
		f, err := spill.Create(g.dir)
		if err != nil {
			return err
		}
		p.file = f
		g.meter.NotePartition()
	}
	n, err := p.file.Append(&p.mem)
	g.meter.NoteIO(time.Since(start))
	if err != nil {
		return err
	}
	g.meter.NoteSpill(n)
	g.meter.Add(-p.memBytes())
	p.mem.Reset()
	return nil
}

// Drain joins the buffered operands partition-at-a-time and hands result
// batches to emit. emit owns nothing: the batch is reused between calls, so
// it must forward (copy) the tuples before returning. Returning a non-nil
// error (e.g. on cancellation) aborts the drain. Partition files are closed
// and removed as they are consumed.
//
// The drain phase's rebuilt hash table is accounted against the meter: the
// spilled portion of the build partition being re-read is reserved while
// its partition pair is joined, so a shared (multi-query) meter sees drain
// residency and other runs spill accordingly. A build partition whose hash
// table would alone exceed the memory budget is not rebuilt in one piece:
// the partition pair is re-partitioned one level deeper (a fresh bit window
// of the same hash, see gracePartition) and drained recursively, so peak
// residency stays bounded by budget/GraceFanout per level instead of by the
// largest skewed partition.
func (g *Grace) Drain(emit func(results *relation.Batch) error) error {
	var scratch relation.Batch
	for i := range g.build {
		bp, pp := &g.build[i], &g.probe[i]
		if g.level < maxGraceLevel && int64(bp.tuples)*relation.TupleWireBytes > g.meter.Budget() {
			if err := g.recurse(bp, pp, emit); err != nil {
				return err
			}
			continue
		}
		// Reserve the file-resident part of the build partition: rebuilding
		// its hash table makes those tuples memory-resident again. The
		// in-memory tail (bp.memBytes) is already on the meter.
		if fileBytes := int64(bp.tuples)*relation.TupleWireBytes - bp.memBytes(); fileBytes > 0 {
			g.meter.Add(fileBytes)
			g.drainBytes = fileBytes
		}
		// A simple join's build batches match nothing: scratch stays empty.
		j := NewPipeliningSized(g.spec, bp.tuples)
		if bp.file != nil {
			start := time.Now()
			err := bp.file.ReadBatches(g.pool, func(batch *relation.Batch) error {
				j.FromBuildSideBatchInto(&scratch, batch)
				return nil
			})
			g.meter.NoteIO(time.Since(start))
			if err != nil {
				return err
			}
		}
		j.FromBuildSideBatchInto(&scratch, &bp.mem)
		j.CloseBuildSide()
		probeChunk := func(batch *relation.Batch) error {
			scratch.Reset()
			j.FromProbeSideBatchInto(&scratch, batch)
			if scratch.Len() == 0 {
				return nil
			}
			return emit(&scratch)
		}
		if pp.file != nil {
			start := time.Now()
			err := pp.file.ReadBatches(g.pool, probeChunk)
			g.meter.NoteIO(time.Since(start))
			if err != nil {
				return err
			}
		}
		if err := probeChunk(&pp.mem); err != nil {
			return err
		}
		j.Release() // next partition's table reuses the memory
		g.releaseDrain()
		g.releasePart(bp)
		g.releasePart(pp)
	}
	return nil
}

// recurse re-partitions one oversized partition pair one level deeper and
// drains the sub-join in its place. The sub-join splits on a hash bit window
// the parent never looked at, so an oversized partition that is merely
// unlucky (many distinct keys colliding in one parent bucket) spreads back
// out across GraceFanout sub-partitions; true duplicate-key skew stays
// together and bottoms out at maxGraceLevel. Feeding goes through the same
// AddBuild/AddProbe path as the parent's input, so a sub-partition that is
// still over budget spills — and, if oversized again, recurses again.
func (g *Grace) recurse(bp, pp *gracePart, emit func(*relation.Batch) error) error {
	g.recursions++
	sub := NewGrace(g.spec, g.meter, g.dir, g.pool)
	sub.level = g.level + 1
	defer sub.Close()
	feed := func(p *gracePart, add func(*relation.Batch) error) error {
		if p.file != nil {
			start := time.Now()
			err := p.file.ReadBatches(g.pool, add)
			g.meter.NoteIO(time.Since(start))
			if err != nil {
				return err
			}
		}
		if p.mem.Len() > 0 {
			// add copies (it partitions into sub's own buffers), so the
			// resident tail can be handed over directly and released after.
			if err := add(&p.mem); err != nil {
				return err
			}
		}
		g.releasePart(p)
		return nil
	}
	if err := feed(bp, sub.AddBuild); err != nil {
		return err
	}
	if err := feed(pp, sub.AddProbe); err != nil {
		return err
	}
	return sub.Drain(emit)
}

// Recursions reports how many oversized partitions this instance (not its
// sub-joins) re-partitioned — a test hook for asserting that skew actually
// forced recursion.
func (g *Grace) Recursions() int { return g.recursions }

// releaseDrain returns the drain phase's hash-table reservation.
func (g *Grace) releaseDrain() {
	if g.drainBytes != 0 {
		g.meter.Add(-g.drainBytes)
		g.drainBytes = 0
	}
}

// releasePart returns a consumed partition's memory reservation and closes
// its file.
func (g *Grace) releasePart(p *gracePart) {
	g.meter.Add(-p.memBytes())
	p.mem = relation.Batch{}
	if p.file != nil {
		p.file.Close()
		p.file = nil
	}
}

// Close releases every partition (idempotent). Its owner, an out-of-core
// operator.Join, calls it from Release on every exit path of the process,
// so a cancelled run leaks neither file descriptors nor meter reservations.
func (g *Grace) Close() {
	g.releaseDrain()
	for i := range g.build {
		g.releasePart(&g.build[i])
		g.releasePart(&g.probe[i])
	}
}

// SpilledSides reports how many partitions of each side currently live on
// disk — a test hook for asserting that a budget actually forced spilling.
func (g *Grace) SpilledSides() (build, probe int) {
	for i := range g.build {
		if g.build[i].file != nil {
			build++
		}
		if g.probe[i].file != nil {
			probe++
		}
	}
	return
}
