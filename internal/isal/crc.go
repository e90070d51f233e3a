// Package isal implements the optimized software kernels the paper uses as
// CPU baselines (named after Intel ISA-L, the library the authors benchmark
// against, §4.1). Kernels are pure functions over byte slices; both the
// simulated CPU baseline and the DSA device model call them so that hardware
// and software results are bit-identical and verifiable against each other.
// Kernels compute functional results only: the virtual time an operation
// takes comes from the cpu and dsa cost models, so a faster kernel here
// speeds up the simulator without moving any simulated number. CRC-32 uses
// the standard library's hardware-folded kernel.
package isal

import "hash/crc32"

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). The DSA CRC
// Generation operation produces this CRC (with configurable seed). The kernel
// is the standard library's: on amd64 it folds 64-byte blocks with
// carry-less multiplication (PCLMULQDQ), the algorithm ISA-L's crc32_ieee
// uses, and on CPUs without that instruction it falls back to slicing-by-8.
// Only the functional result comes from here: the virtual time a CRC costs
// is charged by the cpu and dsa cost models, not by how fast the host
// running the simulation computes it.

const crc32Poly = 0xEDB88320

// CRC32 computes the CRC-32 of p seeded with seed. A seed of 0 computes the
// standard checksum; passing a previous return value continues it.
func CRC32(seed uint32, p []byte) uint32 {
	return crc32.Update(seed, crc32.IEEETable, p)
}

// CRC32Bitwise is the unoptimized bit-at-a-time reference, independent of
// the hash/crc32 kernel behind CRC32; tests cross-check the two.
func CRC32Bitwise(seed uint32, p []byte) uint32 {
	crc := ^seed
	for _, b := range p {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ crc32Poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// CRC-16 T10-DIF (polynomial 0x8BB7, no reflection, zero init/xorout), the
// guard-tag CRC used by the DIF operations (Table 1).

const crc16Poly = 0x8BB7

var crc16Table = buildCRC16Table()

func buildCRC16Table() *[256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = (crc << 1) ^ crc16Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// CRC16T10DIF computes the T10-DIF guard CRC of p seeded with seed.
func CRC16T10DIF(seed uint16, p []byte) uint16 {
	crc := seed
	for _, b := range p {
		crc = crc16Table[byte(crc>>8)^b] ^ (crc << 8)
	}
	return crc
}
