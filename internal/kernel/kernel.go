package kernel

import (
	"container/heap"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/monitor"
)

// Config tunes the kernel model.
type Config struct {
	// Machine is the hardware the kernel boots on; the zero value means
	// arch.Default(). NCPU, when set, overrides Machine.NCPU.
	Machine arch.Machine
	// NCPU is the number of processors (default Machine.NCPU).
	NCPU int
	// Seed drives every stochastic choice, making runs reproducible.
	Seed int64
	// Affinity enables cache-affinity scheduling (the Section 4.2.2
	// optimization): CPUs prefer ready processes that last ran on them.
	Affinity bool
	// OptimizedText lays out the kernel image with the Section 4.2.1
	// code-layout optimization (hot paths get exclusive I-cache sets).
	OptimizedText bool
	// BlockOpBypass makes block copies and clears bypass the caches
	// (the Section 4.2.2 proposal): full miss latency, no displacement
	// of resident state.
	BlockOpBypass bool
	// PrefillCachedFrames marks this many frames as holding stale page
	// cache contents at boot, modeling a machine whose memory has
	// filled during prior uptime so that reclamation (pfdat traversal)
	// occurs within short simulation windows. Default: all but
	// FreeTarget×4 frames.
	PrefillCachedFrames int
	// DiskLatencyCycles is the service time of one disk request.
	DiskLatencyCycles arch.Cycles
	// LowWater is the free-frame count that triggers a pfdat traversal.
	LowWater int
	// ReclaimTarget is how many frames a traversal tries to free.
	ReclaimTarget int
	// QuantumCycles is the scheduling quantum (default 10 ms: 333333).
	QuantumCycles arch.Cycles
	// PoolFrames is the number of page frames left in circulation after
	// boot; the rest are wired (kernel, long-lived daemons, ...). A
	// small pool recycles within the simulation window the way the real
	// machine's 32 MB recycled over minutes of uptime.
	PoolFrames int
}

func (c Config) withDefaults() Config {
	if c.Machine == (arch.Machine{}) {
		c.Machine = arch.Default()
	}
	if c.NCPU == 0 {
		c.NCPU = c.Machine.NCPU
	} else {
		c.Machine.NCPU = c.NCPU
	}
	if c.DiskLatencyCycles == 0 {
		c.DiskLatencyCycles = 230_000 // ≈7 ms
	}
	if c.LowWater == 0 {
		c.LowWater = 96
	}
	if c.ReclaimTarget == 0 {
		c.ReclaimTarget = 192
	}
	if c.QuantumCycles == 0 {
		// Half the 10 ms tick: CPU hogs decay in priority and lose
		// the CPU quickly under timesharing load.
		c.QuantumCycles = arch.ClockTickCycles / 2
	}
	if c.PoolFrames == 0 {
		c.PoolFrames = 256
	}
	return c
}

// OpKind is the high-level OS operation of Table 8, recorded in the
// EnterOS escape and counted for Figures 2 and 9.
type OpKind uint8

const (
	// OpExpensiveTLB is a TLB fault requiring physical page allocation.
	OpExpensiveTLB OpKind = iota
	// OpCheapTLB is a TLB fault that only copies a translation (UTLB
	// faults and other cheap refills).
	OpCheapTLB
	// OpIOSyscall is a file-system read or write system call.
	OpIOSyscall
	// OpSginap is the CPU-reschedule call issued by the user
	// synchronization library.
	OpSginap
	// OpOtherSyscall is every remaining system call.
	OpOtherSyscall
	// OpInterrupt is any interrupt (disk, terminal, inter-CPU, clock,
	// network).
	OpInterrupt

	// NumOps is the number of operation kinds.
	NumOps
)

// String returns the Table 8 operation name.
func (o OpKind) String() string {
	switch o {
	case OpExpensiveTLB:
		return "Expensive TLB Faults"
	case OpCheapTLB:
		return "Cheap TLB Faults"
	case OpIOSyscall:
		return "I/O System Calls"
	case OpSginap:
		return "Sginap System Call"
	case OpOtherSyscall:
		return "Other System Calls"
	case OpInterrupt:
		return "Interrupts"
	default:
		return "?"
	}
}

// BlockOpKind distinguishes the three block operations of Section 4.2.2.
type BlockOpKind uint8

const (
	// BlockCopy is bcopy (page copies, buffer transfers, argument
	// copies).
	BlockCopy BlockOpKind = iota
	// BlockClear is bclear (demand-zero pages, structure
	// initialization).
	BlockClear
	// BlockTraverse is the pfdat traversal looking for reclaimable
	// pages.
	BlockTraverse
)

// BlockOpRec logs one block operation for Table 7.
type BlockOpRec struct {
	Kind  BlockOpKind
	Bytes int
	// Why is a short label of the operation's cause, used by Table 7's
	// examples column.
	Why string
}

type fileKey struct {
	inode int
	page  int64
}

// AsyncEvent is a scheduled asynchronous completion (disk or network
// interrupt) delivered to a specific CPU.
type AsyncEvent struct {
	At   arch.Cycles
	Kind IntrKind
	Ch   SleepChan
	CPU  arch.CPUID
}

// IntrKind labels interrupt sources.
type IntrKind uint8

const (
	// IntrDisk is a disk-controller completion.
	IntrDisk IntrKind = iota
	// IntrNet is a network packet (CPU 1 only).
	IntrNet
	// IntrClock is the 10 ms scheduler tick.
	IntrClock
)

type eventHeap []AsyncEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].At < h[j].At }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(AsyncEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type timer struct {
	at arch.Cycles
	ch SleepChan
}

// Kernel is the operating system instance.
type Kernel struct {
	Cfg   Config
	L     *kmem.Layout
	F     *kmem.Frames
	T     *KText
	rt    rtab // interned routine pointers (hot-path form of T.R)
	Locks *klock.Registry
	Rand  *rand.Rand

	procs   []*Proc
	nextPID arch.PID

	// Two-class run queue (SVR3-style priorities, simplified): the
	// high queue holds interactive processes (recent sleepers and
	// yielders, e.g. sginap callers); the low queue holds CPU hogs.
	// Clock ticks age low-queue processes into the high queue.
	runqHi []*Proc
	runqLo []*Proc
	sleepQ map[SleepChan][]*Proc
	nextCh SleepChan

	pipes      []*Pipe
	nextPipeID int

	// UserLocks are the user-level synchronization-library locks the
	// workload registered (excluded from OS lock statistics).
	UserLocks []*klock.Lock

	events eventHeap
	timers []timer // unsorted; scanned at clock ticks (callout table)

	// Page/text caches.
	fileCache map[fileKey]uint32
	frameFile map[uint32]fileKey
	textCache map[int][]uint32  // image id → frames (index = code page)
	frameText map[uint32][2]int // frame → (image id, page index)
	textRef   map[int]int       // image id → live mappers
	// sharedRef counts live mappers of each shared data frame.
	sharedRef map[uint32]int

	// Statistics.
	OpCounts     [NumOps]int64
	BlockOps     []BlockOpRec
	CtxSwitches  int64
	Migrations   int64
	Spawns       int64
	Exits        int64
	DiskRequests int64
	Traversals   int64
	// TextCacheEvents counts image-text retirements to the page cache;
	// CodeFrameReuses counts reallocations of frames that held code
	// (each forcing an I-cache flush).
	TextCacheEvents int64
	CodeFrameReuses int64

	imageSeq int
}

// Counters is a snapshot of the kernel's cumulative statistics, used to
// restrict reported numbers to the traced window.
type Counters struct {
	OpCounts     [NumOps]int64
	CtxSwitches  int64
	Migrations   int64
	Spawns       int64
	Exits        int64
	DiskRequests int64
	Traversals   int64
	BlockOps     int // index into BlockOps at snapshot time
}

// Counters returns the current snapshot.
func (k *Kernel) Counters() Counters {
	return Counters{
		OpCounts:     k.OpCounts,
		CtxSwitches:  k.CtxSwitches,
		Migrations:   k.Migrations,
		Spawns:       k.Spawns,
		Exits:        k.Exits,
		DiskRequests: k.DiskRequests,
		Traversals:   k.Traversals,
		BlockOps:     len(k.BlockOps),
	}
}

// Sub returns the counter deltas since base.
func (c Counters) Sub(base Counters) Counters {
	out := c
	for i := range out.OpCounts {
		out.OpCounts[i] -= base.OpCounts[i]
	}
	out.CtxSwitches -= base.CtxSwitches
	out.Migrations -= base.Migrations
	out.Spawns -= base.Spawns
	out.Exits -= base.Exits
	out.DiskRequests -= base.DiskRequests
	out.Traversals -= base.Traversals
	return out
}

// BlockOpsSince returns the block operations logged after the snapshot.
func (k *Kernel) BlockOpsSince(base Counters) []BlockOpRec {
	if base.BlockOps > len(k.BlockOps) {
		return nil
	}
	return k.BlockOps[base.BlockOps:]
}

// New boots a kernel.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	layout := kmem.NewLayout(cfg.Machine)
	if cfg.PrefillCachedFrames == 0 {
		// Default: all but FreeTarget×4 pageable frames hold stale
		// page-cache contents at boot (resolved here because the count
		// depends on the machine's memory size).
		cfg.PrefillCachedFrames = layout.Pageable - 360
	}
	k := &Kernel{
		Cfg:       cfg,
		L:         layout,
		F:         kmem.NewFrames(layout.Reserved, layout.Pageable),
		Rand:      rand.New(rand.NewSource(cfg.Seed)),
		procs:     make([]*Proc, kmem.NumProcs),
		sleepQ:    make(map[SleepChan][]*Proc),
		fileCache: make(map[fileKey]uint32),
		frameFile: make(map[uint32]fileKey),
		textCache: make(map[int][]uint32),
		frameText: make(map[uint32][2]int),
		textRef:   make(map[int]int),
		sharedRef: make(map[uint32]int),
		nextPID:   1,
	}
	if cfg.OptimizedText {
		k.T = NewKTextOptimized(k.L.KernelText.Base, cfg.Machine)
	} else {
		k.T = NewKText(k.L.KernelText.Base, cfg.Machine)
	}
	k.rt = newRtab(k.T)
	k.Locks = klock.NewRegistry(kmem.NumProcs, 16, kmem.NumInodes, 32)
	// Model a warmed machine: most frames hold stale page-cache data
	// and are reclaimable only by pfdat traversal.
	for i := 0; i < cfg.PrefillCachedFrames; i++ {
		fr, _, ok := k.F.Alloc(kmem.FrameBuf, arch.NoPID, 0)
		if !ok {
			break
		}
		key := fileKey{inode: -1, page: int64(i)}
		k.fileCache[key] = fr
		k.frameFile[fr] = key
		k.F.CacheFrame(fr)
	}
	return k
}

// NewImage registers a program image.
func (k *Kernel) NewImage(name string, codePages int) *Image {
	k.imageSeq++
	return &Image{ID: k.imageSeq, Name: name, CodePages: codePages}
}

// NewChan allocates a sleep channel.
func (k *Kernel) NewChan() SleepChan {
	k.nextCh++
	return k.nextCh
}

// RegisterUserLock creates a user-level synchronization-library lock.
func (k *Kernel) RegisterUserLock(name string) *klock.Lock {
	l := klock.NewLock(name)
	l.User = true
	k.UserLocks = append(k.UserLocks, l)
	return l
}

// NewPipe allocates a pipe.
func (k *Kernel) NewPipe() *Pipe {
	k.nextPipeID++
	p := &Pipe{ID: k.nextPipeID, readCh: k.NewChan()}
	k.pipes = append(k.pipes, p)
	return p
}

// Procs returns the live processes (for tests and reports).
func (k *Kernel) Procs() []*Proc {
	out := make([]*Proc, 0, 16)
	for _, p := range k.procs {
		if p != nil && p.State != StateFree && p.State != StateZombie {
			out = append(out, p)
		}
	}
	return out
}

// ---- process creation ----

// vpage bases of the process virtual layout.
const (
	CodeVBase   = 0x100
	DataVBase   = 0x400
	SharedVBase = 0x800
)

// CreateProc installs a process at boot time without charging any CPU
// traffic (the workload's initial processes). Use SysSpawn for processes
// created during the run.
func (k *Kernel) CreateProc(spec *ProcSpec) *Proc {
	slot := k.freeSlot()
	p := &Proc{
		PID:           k.nextPID,
		Slot:          slot,
		Name:          spec.Name,
		State:         StateReady,
		Behavior:      spec.Behavior,
		pages:         make(map[uint32]PageInfo),
		image:         spec.Image,
		sleepOn:       NoChan,
		ChildExitChan: k.NewChan(),
		LastCPU:       -1,
	}
	k.nextPID++
	k.procs[slot] = p
	k.initFootprint(p, spec)
	if spec.Premap {
		k.premap(p) // premap counts the text reference itself
	} else if spec.Image != nil {
		k.textRef[spec.Image.ID]++
	}
	k.runqHi = append(k.runqHi, p)
	return p
}

// premap silently maps a boot process's entire footprint (no CPU traffic;
// the pages were faulted long before tracing started).
func (k *Kernel) premap(p *Proc) {
	alloc := func(kind kmem.FrameKind, vp uint32) uint32 {
		fr, _, ok := k.F.Alloc(kind, p.PID, vp)
		if !ok {
			// Reclaim stale page-cache frames exactly as a
			// pre-trace pfdat traversal would have.
			for _, rfr := range k.F.Reclaim(k.Cfg.ReclaimTarget) {
				k.forgetFrame(rfr)
			}
			fr, _, ok = k.F.Alloc(kind, p.PID, vp)
			if !ok {
				panic("kernel: premap out of memory")
			}
		}
		return fr
	}
	if p.image != nil {
		cachePages := k.textCache[p.image.ID]
		if cachePages == nil {
			cachePages = make([]uint32, p.image.CodePages)
			k.textCache[p.image.ID] = cachePages
		}
		k.textRef[p.image.ID]++
		for i, vp := range p.FP.CodeVPages {
			fr := cachePages[i]
			if fr == 0 || k.F.State(fr) == kmem.StateFree {
				fr = alloc(kmem.FrameCode, vp)
				cachePages[i] = fr
				k.frameText[fr] = [2]int{p.image.ID, i}
			} else if k.F.State(fr) == kmem.StateCached {
				k.F.Reactivate(fr)
			}
			p.pages[vp] = PageInfo{Frame: fr, Code: true, Shared: true}
		}
	}
	for _, vp := range p.FP.DataVPages {
		p.pages[vp] = PageInfo{Frame: alloc(kmem.FrameData, vp)}
	}
	for _, vp := range p.FP.SharedVPages {
		if p.sharedLeader != nil {
			if pi, ok := p.sharedLeader.pages[vp]; ok {
				p.pages[vp] = PageInfo{Frame: pi.Frame, Shared: true}
				k.sharedRef[pi.Frame]++
				continue
			}
		}
		pi := PageInfo{Frame: alloc(kmem.FrameData, vp), Shared: true}
		p.pages[vp] = pi
		k.sharedRef[pi.Frame]++
		if p.sharedLeader != nil {
			p.sharedLeader.pages[vp] = pi
			k.sharedRef[pi.Frame]++
		}
	}
}

func (k *Kernel) freeSlot() int {
	for i, pr := range k.procs {
		if pr == nil || pr.State == StateFree {
			return i
		}
	}
	panic("kernel: process table full")
}

func (k *Kernel) initFootprint(p *Proc, spec *ProcSpec) {
	fp := &p.FP
	img := spec.Image
	if img != nil {
		for i := 0; i < img.CodePages; i++ {
			fp.CodeVPages = append(fp.CodeVPages, uint32(CodeVBase+i))
		}
	}
	for i := 0; i < spec.DataPages; i++ {
		fp.DataVPages = append(fp.DataVPages, uint32(DataVBase+i))
	}
	if spec.SharedWith != nil {
		// Map the leader's shared pages at the same virtual addresses
		// and, crucially, the same frames once the leader faults them
		// in (see PageFault's shared-page path).
		fp.SharedVPages = append(fp.SharedVPages, spec.SharedWith.FP.SharedVPages...)
		p.sharedLeader = spec.SharedWith
	} else if spec.SharedPages > 0 {
		for i := 0; i < spec.SharedPages; i++ {
			fp.SharedVPages = append(fp.SharedVPages, uint32(SharedVBase+i))
		}
	}
	fp.CodeLoopBlocks = spec.CodeLoopBlocks
	if fp.CodeLoopBlocks == 0 {
		fp.CodeLoopBlocks = 48
	}
	fp.DataHotPages = spec.DataHotPages
	if fp.DataHotPages == 0 {
		fp.DataHotPages = 8
	}
	fp.WritePct = spec.WritePct
	if fp.WritePct == 0 {
		fp.WritePct = 30
	}
	fp.DataRefsPerBlock = spec.DataRefsPerBlock
	if fp.DataRefsPerBlock == 0 {
		fp.DataRefsPerBlock = 1
	}
	fp.Rng = NewRefRand(k.Cfg.Seed, p.PID)
}

// ---- small data-structure touch helpers ----
// These generate the characteristic data traffic of kernel execution.

func (k *Kernel) kstackTouch(p Port, pr *Proc, bytes int, write bool) {
	k.kstackTouchAt(p, pr, 0, bytes, write)
}

// kstackTouchAt touches the kernel stack at a call depth: deeper kernel
// paths use frames further from the stack top, so the migration misses on
// kernel stacks spread across many routines (Table 5).
func (k *Kernel) kstackTouchAt(p Port, pr *Proc, depth, bytes int, write bool) {
	if pr == nil {
		return
	}
	off := kmem.KStackSize - depth*256 - bytes
	if off < 0 {
		off = 0
	}
	a := k.L.KStackAddr(pr.Slot) + arch.PAddr(off)
	if write {
		p.Store(a, bytes)
	} else {
		p.Load(a, bytes)
	}
}

func (k *Kernel) touchPCB(p Port, pr *Proc, write bool) {
	a := k.L.UStructAddr(pr.Slot)
	if write {
		p.Store(a, kmem.PCBSize)
	} else {
		p.Load(a, kmem.PCBSize)
	}
}

func (k *Kernel) touchEframe(p Port, pr *Proc, write bool) {
	a := k.L.UStructAddr(pr.Slot) + kmem.PCBSize
	if write {
		p.Store(a, kmem.EframeSize)
	} else {
		p.Load(a, kmem.EframeSize)
	}
}

func (k *Kernel) touchURest(p Port, pr *Proc, bytes int, write bool) {
	a := k.L.UStructAddr(pr.Slot) + kmem.PCBSize + kmem.EframeSize
	if bytes > kmem.RestUSize {
		bytes = kmem.RestUSize
	}
	if write {
		p.Store(a, bytes)
	} else {
		p.Load(a, bytes)
	}
}

func (k *Kernel) touchProcEntry(p Port, pr *Proc, bytes int, write bool) {
	if bytes > kmem.ProcEntrySize {
		bytes = kmem.ProcEntrySize
	}
	a := k.L.ProcEntryAddr(pr.Slot)
	if write {
		p.Store(a, bytes)
	} else {
		p.Load(a, bytes)
	}
}

// ---- block operations (Section 4.2.2) ----

// Bcopy sweeps bytes from src to dst: the copy loop reads and writes whole
// blocks, wiping a proportional slice of the data cache.
func (k *Kernel) Bcopy(p Port, src, dst arch.PAddr, bytes int, why string) {
	p.Exec(k.rt.bcopy)
	p.Escape(monitor.EvBlockOp, uint32(BlockCopy), uint32(bytes))
	if k.Cfg.BlockOpBypass {
		// The whole extent moves through the block-transfer hardware
		// (bursts of contiguous blocks, no cache fills).
		p.LoadBypass(src, bytes)
		p.StoreBypass(dst, bytes)
	} else {
		for off := 0; off < bytes; off += arch.BlockSize {
			n := bytes - off
			if n > arch.BlockSize {
				n = arch.BlockSize
			}
			p.Load(src+arch.PAddr(off), n)
			p.Store(dst+arch.PAddr(off), n)
		}
	}
	k.BlockOps = append(k.BlockOps, BlockOpRec{Kind: BlockCopy, Bytes: bytes, Why: why})
}

// Bclear zeroes bytes at dst.
func (k *Kernel) Bclear(p Port, dst arch.PAddr, bytes int, why string) {
	p.Exec(k.rt.bclear)
	p.Escape(monitor.EvBlockOp, uint32(BlockClear), uint32(bytes))
	if k.Cfg.BlockOpBypass {
		p.StoreBypass(dst, bytes)
	} else {
		for off := 0; off < bytes; off += arch.BlockSize {
			n := bytes - off
			if n > arch.BlockSize {
				n = arch.BlockSize
			}
			p.Store(dst+arch.PAddr(off), n)
		}
	}
	k.BlockOps = append(k.BlockOps, BlockOpRec{Kind: BlockClear, Bytes: bytes, Why: why})
}

// traversePfdat is the third block operation: sweep page descriptors
// looking for reclaimable pages, then free them.
func (k *Kernel) traversePfdat(p Port, want int) {
	p.Exec(k.rt.vhand)
	k.Traversals++
	start := k.Rand.Intn(k.L.Pageable)
	scanned := 0
	// Scan until enough cached frames have been seen or the whole
	// array has been swept.
	seen := 0
	for i := 0; i < k.L.Pageable && seen < want; i++ {
		idx := (start + i) % k.L.Pageable
		p.Load(k.L.PfdatAddr(idx), kmem.PfdatEntrySize)
		scanned++
		fr := k.L.FirstUserFrame() + uint32(idx)
		if k.F.State(fr) == kmem.StateCached {
			seen++
		}
	}
	p.Escape(monitor.EvBlockOp, uint32(BlockTraverse), uint32(scanned*kmem.PfdatEntrySize))
	k.BlockOps = append(k.BlockOps, BlockOpRec{
		Kind: BlockTraverse, Bytes: scanned * kmem.PfdatEntrySize, Why: "free memory needed",
	})
	freed := k.F.Reclaim(want)
	for _, fr := range freed {
		// Update the descriptor and free bucket of each reclaimed
		// frame and drop its page-cache / text-cache / TLB presence.
		p.Store(k.L.PfdatAddrOfFrame(fr), kmem.PfdatEntrySize)
		p.Store(k.L.BucketAddr(kmem.BucketOf(fr)), 8)
		k.forgetFrame(fr)
		p.TLBInvalidateFrame(fr)
	}
}

// AllocFrame allocates a physical frame via the pgalloc path, running the
// pfdat traversal under memory pressure and invalidating instruction
// caches when a frame that held code is reallocated.
func (k *Kernel) AllocFrame(p Port, kind kmem.FrameKind, pid arch.PID, vpage uint32) uint32 {
	p.Exec(k.rt.pgalloc)
	mem := k.Locks.Get(klock.Memlock)
	// The pfdat traversal runs WITHOUT Memlock held (it takes hundreds
	// of microseconds; holding the allocation lock across it would
	// stall every other allocator).
	if k.F.FreeCount() < k.Cfg.LowWater {
		k.traversePfdat(p, k.Cfg.ReclaimTarget)
	}
	p.Acquire(mem)
	fr, wasCode, ok := k.F.Alloc(kind, pid, vpage)
	if !ok {
		p.Release(mem)
		k.traversePfdat(p, k.Cfg.ReclaimTarget)
		p.Acquire(mem)
		fr, wasCode, ok = k.F.Alloc(kind, pid, vpage)
		if !ok {
			panic("kernel: out of memory with nothing reclaimable")
		}
	}
	p.Load(k.L.BucketAddr(kmem.BucketOf(fr)), 8)
	p.Store(k.L.PfdatAddrOfFrame(fr), kmem.PfdatEntrySize)
	p.Release(mem)
	if wasCode {
		k.CodeFrameReuses++
		p.ICacheInvalFrame(fr)
	}
	p.Escape(monitor.EvPageAlloc, fr, uint32(kind))
	return fr
}

// FreeFrame returns a frame via the pgfree path.
func (k *Kernel) FreeFrame(p Port, fr uint32) {
	p.Exec(k.rt.pgfree)
	mem := k.Locks.Get(klock.Memlock)
	p.Acquire(mem)
	k.F.Free(fr)
	p.Store(k.L.PfdatAddrOfFrame(fr), kmem.PfdatEntrySize)
	p.Store(k.L.BucketAddr(kmem.BucketOf(fr)), 8)
	p.Release(mem)
	p.Escape(monitor.EvPageFree, fr)
}

// forgetFrame drops a reclaimed frame's page-cache and text-cache entries
// (its contents are gone; a stale text-cache pointer would alias the frame
// after reallocation).
func (k *Kernel) forgetFrame(fr uint32) {
	if key, ok := k.frameFile[fr]; ok {
		delete(k.fileCache, key)
		delete(k.frameFile, fr)
	}
	if tk, ok := k.frameText[fr]; ok {
		if pages := k.textCache[tk[0]]; pages != nil && tk[1] < len(pages) && pages[tk[1]] == fr {
			pages[tk[1]] = 0
		}
		delete(k.frameText, fr)
	}
}

// WireAllBut wires frames until only target free frames remain in
// circulation and the reclaimable queue is empty, so the page cache the
// run accumulates is exactly what a traversal finds. Called after
// workload setup, before the run.
func (k *Kernel) WireAllBut(target int) {
	// Flush the boot-time page cache.
	for {
		rec := k.F.Reclaim(k.L.Pageable)
		for _, rfr := range rec {
			k.forgetFrame(rfr)
		}
		if len(rec) == 0 {
			break
		}
	}
	for k.F.FreeCount() > target {
		if _, _, ok := k.F.Alloc(kmem.FrameData, arch.NoPID, 0); !ok {
			return
		}
	}
}

// CodeFrames returns every frame currently holding program text (for the
// initial-state dump the instrumentation writes when tracing starts).
func (k *Kernel) CodeFrames() []uint32 {
	var out []uint32
	ids := make([]int, 0, len(k.textCache))
	for id := range k.textCache {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, fr := range k.textCache[id] {
			if fr != 0 && k.F.State(fr) != kmem.StateFree {
				out = append(out, fr)
			}
		}
	}
	return out
}

// ---- events & timers ----

func (k *Kernel) postEvent(at arch.Cycles, kind IntrKind, ch SleepChan, cpu arch.CPUID) {
	heap.Push(&k.events, AsyncEvent{At: at, Kind: kind, Ch: ch, CPU: cpu})
}

// NextEventTime returns the time of the earliest pending asynchronous
// event, or -1 if none.
func (k *Kernel) NextEventTime() arch.Cycles {
	if len(k.events) == 0 {
		return -1
	}
	return k.events[0].At
}

// PopDueEvent removes and returns the earliest event with time ≤ now.
func (k *Kernel) PopDueEvent(now arch.Cycles) (AsyncEvent, bool) {
	if len(k.events) == 0 || k.events[0].At > now {
		return AsyncEvent{}, false
	}
	return heap.Pop(&k.events).(AsyncEvent), true
}

// PopDueEventFor removes and returns a due event targeted at the given
// CPU, if any. Events for other CPUs are left in place: they are delivered
// when their target CPU is stepped, which the min-clock scheduling makes
// prompt.
func (k *Kernel) PopDueEventFor(cpu arch.CPUID, now arch.Cycles) (AsyncEvent, bool) {
	for i := range k.events {
		if k.events[i].At <= now && k.events[i].CPU == cpu {
			ev := k.events[i]
			heap.Remove(&k.events, i)
			return ev, true
		}
	}
	return AsyncEvent{}, false
}

// addTimer registers a callout to wake ch at time at.
func (k *Kernel) addTimer(at arch.Cycles, ch SleepChan) {
	k.timers = append(k.timers, timer{at: at, ch: ch})
}

// RunnableCount returns the run-queue length (used by idle polling).
func (k *Kernel) RunnableCount() int { return len(k.runqHi) + len(k.runqLo) }
