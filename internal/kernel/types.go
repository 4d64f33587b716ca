// Package kernel models the operating system of the measured machine: a
// multithreaded System V kernel in the style of IRIX 3.2. It is not a
// statistical model — every kernel operation (system calls, TLB faults,
// interrupts, context switches, block operations) executes real kernel
// routines through a Port, fetching their instruction blocks and touching
// the actual Table 3 data structures, so the cache misses the paper
// analyzes arise from the same mechanisms.
package kernel

import (
	"repro/internal/arch"
	"repro/internal/klock"
)

// ProcState is a process's scheduling state.
type ProcState uint8

const (
	// StateFree marks an unused process-table slot.
	StateFree ProcState = iota
	// StateReady means on the run queue.
	StateReady
	// StateRunning means executing on a CPU.
	StateRunning
	// StateSleeping means blocked on a sleep channel.
	StateSleeping
	// StateZombie means exited.
	StateZombie
)

// SleepChan identifies a kernel sleep/wakeup channel.
type SleepChan int

// NoChan means "not sleeping".
const NoChan SleepChan = -1

// PageInfo describes one mapped virtual page of a process.
type PageInfo struct {
	Frame  uint32
	Code   bool
	COW    bool // copy-on-write: first store must copy the page
	Shared bool // shared mapping (frame freed only by the last unmapper)
}

// Footprint is the user-mode reference-generation state of a process. The
// simulator walks the code pages in a loop-structured pattern and the data
// pages with a hot-set pattern; all virtual pages translate through the TLB
// and fault on first touch.
type Footprint struct {
	// CodeVPages and DataVPages list the process's virtual pages.
	CodeVPages []uint32
	DataVPages []uint32
	// SharedVPages are data pages shared with other processes (e.g. the
	// particle arrays of Mp3d, the database buffer pool).
	SharedVPages []uint32

	// CodeLoopBlocks is the size, in cache blocks, of the typical inner
	// loop the instruction fetch stream cycles over before jumping.
	CodeLoopBlocks int
	// DataHotPages is how many data pages form the hot set.
	DataHotPages int
	// WritePct is the percentage of data references that are stores.
	WritePct int
	// DataRefsPerBlock is how many data references accompany each
	// fetched instruction block (4 instructions).
	DataRefsPerBlock int

	// Mutable generator state (owned by the simulator).
	CodePos  int // block offset within the code region
	LoopLeft int // blocks to go before the next jump
	DataPos  int // block offset within the hot data window
	HotBase  int // first page (index into AllData) of the hot window
	// AllData caches DataVPages+SharedVPages for the generator.
	AllData []uint32
	// Rng drives this process's reference draws. Per-process (seeded
	// from run seed + PID) so the stream is independent of CPU
	// interleaving.
	Rng RefRand
}

// Action is what a process wants to do next with its user time.
type Action struct {
	Kind ActionKind
	// Cycles is the compute duration for ActCompute.
	Cycles arch.Cycles
	// Req is the system call for ActSyscall.
	Req SyscallReq
	// Lock is the user-level synchronization-library lock for
	// ActUserLock; Hold is how long to hold it.
	Lock *klock.Lock
	Hold arch.Cycles
}

// ActionKind enumerates process actions.
type ActionKind uint8

const (
	// ActCompute runs user code for Cycles.
	ActCompute ActionKind = iota
	// ActSyscall performs Req.
	ActSyscall
	// ActUserLock acquires Lock via the user synchronization library
	// (spin up to 20 times, then sginap — Section 4.1), computes for
	// Hold cycles, and releases.
	ActUserLock
	// ActExit terminates the process.
	ActExit
)

// Behavior generates a process's activity; workloads implement it.
type Behavior interface {
	// Next returns the process's next action. It is called in user
	// context whenever the previous action completes.
	Next(k *Kernel, p *Proc) Action
}

// SysKind enumerates the modeled system calls.
type SysKind uint8

const (
	// SysRead reads Bytes at Offset from file Inode through the page
	// cache (may sleep on disk).
	SysRead SysKind = iota
	// SysWrite writes Bytes at Offset to file Inode (delayed write).
	SysWrite
	// SysOpen performs the name lookup and in-core inode allocation.
	SysOpen
	// SysClose releases the in-core inode.
	SysClose
	// SysSpawn forks and execs a child described by Child.
	SysSpawn
	// SysSginap yields the CPU (issued by the synchronization library
	// after 20 failed spins on a user lock).
	SysSginap
	// SysNap sleeps for Dur cycles on the callout table.
	SysNap
	// SysPipeRead reads from Pipe (sleeps when empty).
	SysPipeRead
	// SysPipeWrite writes to Pipe, waking a sleeping reader.
	SysPipeWrite
	// SysBrk grows the heap (allocates nothing until first touch).
	SysBrk
	// SysSmall is a cheap syscall (getpid, time, ...).
	SysSmall
	// SysWait sleeps until one of the caller's children exits.
	SysWait
	// SysMisc is a rarely-used syscall that executes one of the cold
	// filler routines (the long tail of kernel code).
	SysMisc
	// SysSemop operates on a System V semaphore (the database's
	// inter-process coordination); Sem selects the semaphore.
	SysSemop
)

// SyscallReq carries a system call's arguments.
type SyscallReq struct {
	Kind   SysKind
	Inode  int
	Offset int64
	Bytes  int
	Child  *ProcSpec
	Dur    arch.Cycles
	Pipe   *Pipe
	// Raw marks raw-device I/O (the database's own file management):
	// data moves by DMA between the device and the user's buffers,
	// bypassing the page cache — no kernel block copy.
	Raw bool
	// Sem selects the semaphore for SysSemop.
	Sem int
}

// ProcSpec describes a process to create.
type ProcSpec struct {
	Name        string
	Image       *Image
	DataPages   int   // demand-zero data/heap/stack pages
	SharedWith  *Proc // share this process's shared mappings
	SharedPages int   // create this many new shared pages (leader)
	Behavior    Behavior

	// Premap maps every page at creation without charging CPU traffic.
	// Boot-time processes of a long-running system (the database and
	// its buffer pool, the particle simulator) have faulted their pages
	// long before tracing starts; short-lived processes (compile jobs)
	// leave this false and demand-fault normally.
	Premap bool

	// Footprint tuning.
	CodeLoopBlocks   int
	DataHotPages     int
	WritePct         int
	DataRefsPerBlock int
}

// Image identifies a program's text so that its pages are shared between
// processes running it and cached after they exit.
type Image struct {
	ID        int
	Name      string
	CodePages int
}

// SysStatus is the outcome of a system-call phase.
type SysStatus uint8

const (
	// SysDone means the call completed; the process continues in user
	// mode.
	SysDone SysStatus = iota
	// SysBlocked means the process went to sleep; its continuation
	// runs when it is rescheduled.
	SysBlocked
	// SysExited means the process terminated.
	SysExited
	// SysYield means the caller gave up the CPU (sginap): the simulator
	// requeues it and reschedules.
	SysYield
)

// Proc is one process.
type Proc struct {
	PID   arch.PID
	Slot  int
	Name  string
	State ProcState

	// LastCPU is where the process last ran; migration is running on a
	// different CPU, which turns the per-process structures (kernel
	// stack, user structure, process-table entry) into shared data.
	LastCPU arch.CPUID
	HasRun  bool

	Behavior Behavior
	FP       Footprint

	pages map[uint32]PageInfo
	image *Image
	// sharedLeader is the process whose shared mappings this process
	// attaches to (nil if none or if this process is the leader).
	sharedLeader *Proc

	// kcont is the pending kernel continuation to run when the process
	// is next scheduled (the bottom half of a blocking system call).
	kcont   func(Port, *Proc) SysStatus
	kcontOp OpKind
	sleepOn SleepChan

	// PendingCompute is the unfinished remainder of the current compute
	// action (preserved across preemption).
	PendingCompute arch.Cycles
	// PendingAction is a queued action that must resume (user locks).
	PendingAction *Action
	// UserLockHeld marks that PendingAction's lock is held and the
	// critical-section compute is in progress.
	UserLockHeld bool

	// ChildExitChan is the sleep channel the process's children signal
	// on exit.
	ChildExitChan SleepChan
	// Parent is the spawning process (nil for boot processes).
	Parent *Proc
	// LiveChildren counts unreaped children.
	LiveChildren int

	// Scheduling.
	EnqueuedAt  arch.Cycles
	QuantumUsed arch.Cycles
}

// MappedPage returns the page info for a virtual page.
func (p *Proc) MappedPage(vpage uint32) (PageInfo, bool) {
	pi, ok := p.pages[vpage]
	return pi, ok
}

// Pipe is a kernel pipe (also used to model the character streams between
// the typist programs and the editors).
type Pipe struct {
	ID       int
	Buffered int
	readCh   SleepChan
}
