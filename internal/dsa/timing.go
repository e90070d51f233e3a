package dsa

import (
	"time"
)

// Timing holds every device-side timing constant of the model. Each field
// notes the paper figure that pins it. The defaults reproduce the Sapphire
// Rapids DSA behaviour; tests assert the resulting anchors (sync crossover
// ~4 KB, async crossover ~256 B, 30 GB/s saturation).
type Timing struct {
	// SubmitMOVDIR64B is the core-side cost of a posted 64-byte portal
	// write to a dedicated WQ (§3.3). Cheap: the store retires without an
	// acknowledgement.
	SubmitMOVDIR64B time.Duration
	// SubmitENQCMD is the core-side cost of a non-posted ENQCMD to a
	// shared WQ, including the round trip that returns the retry status
	// (§3.3; the SWQ penalty visible in Fig 9 below 8 KB).
	SubmitENQCMD time.Duration
	// PortalHop is the on-die fabric latency from core to device portal
	// and back for the completion record (half each way); part of the
	// fixed offload overhead that makes small sync transfers lose to the
	// CPU in Fig 2a.
	PortalHop time.Duration
	// EngineSetup is the work-descriptor processing unit's per-descriptor
	// decode/dispatch occupancy for descriptors arriving from a WQ. It
	// bounds the descriptor rate of one PE.
	EngineSetup time.Duration
	// BatchSubDesc is the (pipelined) per-sub-descriptor issue cost when
	// the batch processing unit feeds an engine — cheaper than EngineSetup
	// because descriptors are fetched in bulk (§3.4 F2, Figs 3/9).
	BatchSubDesc time.Duration
	// ATCHit is the translation latency for a page cached in the device
	// ATC; the IOMMU walk cost on a miss comes from mem.IOMMU. Only the
	// pipeline-fill translation is exposed per descriptor: subsequent
	// pages overlap with data movement, which is why huge pages show no
	// throughput effect (Fig 8).
	ATCHit time.Duration
	// CRWrite is the completion-record write latency (always a DDIO write
	// into the LLC, §6.2).
	CRWrite time.Duration
	// PollGap is the software polling granularity when spinning on a
	// completion record.
	PollGap time.Duration
	// FabricGBps is the device's I/O fabric bandwidth: the 30 GB/s
	// saturation ceiling of Figs 3, 4, 9, 10.
	FabricGBps float64
	// ReadBufLine is the bytes one read buffer holds in flight (a cache
	// line). A group's sustainable read bandwidth is
	// ReadBufs × ReadBufLine / source-latency — Little's law; §3.4 F3.
	ReadBufLine int64
	// DescAlloc is the software descriptor+completion-record allocation
	// cost per allocation call; Fig 5 shows it dominating the naive
	// offload path before software amortizes it.
	DescAlloc time.Duration
	// DescAllocPer is the additional allocation cost per descriptor within
	// one allocation call (touching/zeroing each 64-byte slot).
	DescAllocPer time.Duration
	// DescPrepare is the software cost to fill in a pre-allocated
	// descriptor: "two writes", §4.2.
	DescPrepare time.Duration
	// IntrDeliver is the completion-interrupt delivery latency (MSI-X
	// through the APIC into the handler), and IntrHandler the kernel/user
	// handler cost — the §4.4 alternative to UMWAIT, with higher wake
	// latency but zero polling burn.
	IntrDeliver time.Duration
	IntrHandler time.Duration
	// IntrCoalesceTick is the granularity of the device's interrupt-
	// moderation timer — the hold-off counter production drivers program
	// per queue/vector. A Coalescer's time window rounds up to a whole
	// number of ticks, so software cannot request a tighter bound than
	// the moderation hardware resolves.
	IntrCoalesceTick time.Duration
	// RingPush is the software cost of publishing one prepared descriptor
	// into a WQ's submission ring: one CAS on the shared tail plus a
	// 64-byte slot write. It is the only point where concurrent submitters
	// to one ring serialize, and it is what a sharded submission plane
	// pays instead of the service mutex's hold time. The model's ring is a
	// plain queue (SubmitRing); this cost is where the CAS lives.
	RingPush time.Duration
	// FaultReport is the device-side cost of detecting a page fault and
	// writing the partial completion record (block-on-fault clear). The
	// block-on-fault alternative pays the full OS resolve round trip
	// (IOMMU.FaultLat) instead — the §4.3 QoS hazard.
	FaultReport time.Duration
}

// DefaultTiming returns the Sapphire Rapids DSA calibration.
func DefaultTiming() Timing {
	return Timing{
		SubmitMOVDIR64B:  25 * time.Nanosecond,
		SubmitENQCMD:     400 * time.Nanosecond,
		PortalHop:        500 * time.Nanosecond,
		EngineSetup:      150 * time.Nanosecond,
		BatchSubDesc:     40 * time.Nanosecond,
		ATCHit:           5 * time.Nanosecond,
		CRWrite:          100 * time.Nanosecond,
		PollGap:          200 * time.Nanosecond,
		FabricGBps:       30,
		ReadBufLine:      64,
		DescAlloc:        12 * time.Microsecond,
		DescAllocPer:     200 * time.Nanosecond,
		DescPrepare:      60 * time.Nanosecond,
		IntrDeliver:      2 * time.Microsecond,
		IntrHandler:      600 * time.Nanosecond,
		IntrCoalesceTick: 500 * time.Nanosecond,
		RingPush:         15 * time.Nanosecond,
		FaultReport:      500 * time.Nanosecond,
	}
}

// CBDMATiming returns the Ice Lake CBDMA calibration: the predecessor's
// higher per-descriptor overhead and roughly 2.1× lower delivered copy
// throughput (§4.2 "Comparison with CBDMA").
func CBDMATiming() Timing {
	t := DefaultTiming()
	t.FabricGBps = 16 // large-transfer ratio ≈ 1.9; small-transfer overheads lift the average to ≈2.1 (§4.2)
	t.EngineSetup = 200 * time.Nanosecond
	t.PortalHop = 700 * time.Nanosecond // chipset-heritage ring+doorbell programming path
	t.BatchSubDesc = t.EngineSetup      // no batch processing unit
	return t
}
