// Package mem models the memory system of the evaluated platforms: the
// shared-virtual-memory address space applications and the DSA device both
// operate on, NUMA nodes of different mediums (local DRAM, remote-socket
// DRAM behind UPI, CXL-attached memory), the shared last-level cache with
// its DDIO partition, and the IOMMU used for device address translation.
//
// Functional state (real bytes) and timing state (latency/bandwidth) are
// kept together: every buffer is backed by real memory so operations are
// verifiable, while access-time queries feed the event simulation.
package mem

import (
	"fmt"
	"time"

	"dsasim/internal/sim"
)

// Kind classifies the medium backing a NUMA node.
type Kind int

const (
	// DRAM is conventional direct-attached DDR memory.
	DRAM Kind = iota
	// CXL is memory attached over a CXL.mem link (exposed as a CPU-less
	// NUMA node, as on Sapphire Rapids with an Agilex-I card).
	CXL
)

// String returns the medium name.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case CXL:
		return "CXL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one NUMA node: a pool of physical memory with a fixed medium,
// latency profile, and bandwidth pipes shared by every agent in the system.
type Node struct {
	ID     int
	Socket int
	Kind   Kind

	// ReadLat and WriteLat are idle access latencies observed by a local
	// agent (first-word latency, before bandwidth serialization).
	ReadLat  time.Duration
	WriteLat time.Duration

	// readGBps and writeGBps record the configured pipe rates, exposed to
	// placement policies that compare media (DRAM vs CXL write speed, G4).
	readGBps  float64
	writeGBps float64

	// read and write are the node's bandwidth pipes. Reads and writes use
	// separate pipes: CXL memory in particular has asymmetric read/write
	// bandwidth (Fig 6b), and DRAM write traffic competes with reads only
	// past the controller, which separate pipes approximate well.
	read  *sim.Pipe
	write *sim.Pipe
}

// NodeConfig describes a node to be added to a System.
type NodeConfig struct {
	Socket    int
	Kind      Kind
	ReadLat   time.Duration
	WriteLat  time.Duration
	ReadGBps  float64
	WriteGBps float64
}

// ReadGBps returns the node's configured read bandwidth.
func (n *Node) ReadGBps() float64 { return n.readGBps }

// WriteGBps returns the node's configured write bandwidth.
func (n *Node) WriteGBps() float64 { return n.writeGBps }

// ReserveReadAt books read traffic starting no earlier than t.
func (n *Node) ReserveReadAt(t sim.Time, bytes int64) sim.Time { return n.read.ReserveAt(t, bytes) }

// ReserveWriteAt books write traffic starting no earlier than t.
func (n *Node) ReserveWriteAt(t sim.Time, bytes int64) sim.Time { return n.write.ReserveAt(t, bytes) }
