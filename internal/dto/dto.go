// Package dto models the DSA Transparent Offload library the paper's
// authors built (§5, Appendix B) as a tenant policy. DTO intercepts
// memcpy(), offloads calls at or above a size threshold as synchronous
// DSA operations, leaves smaller ones on the core, and has the core redo
// a copy whose offload page-faults (CacheBench's "redo on fault" policy).
// An offload.Tenant already has each of these: Policy.OffloadThreshold
// routes its Auto path, the software executor runs the core's copy, and
// Policy.FallbackAfter finishes a faulted operation there. A tenant built
// with offload.TenantPolicy(dto.Policy()) behaves as DTO does; its Stats
// count the offloaded (HWOps), core (SWOps) and redone (Fallbacks) calls.
package dto

import "dsasim/internal/offload"

// DefaultMinSize is the default offload threshold: the paper offloads
// memcpy() calls of 8 KB and larger in the CacheLib study ("DSA improves
// throughput ... generally at or above 8KB", Appendix B).
const DefaultMinSize int64 = 8 << 10

// Policy returns the DTO policy: offload at or above DefaultMinSize, and
// finish the rest of an operation on the core at its first fault.
func Policy() offload.Policy {
	pol := offload.DefaultPolicy()
	pol.OffloadThreshold = DefaultMinSize
	pol.RetryMax = 1
	pol.FallbackAfter = 1
	return pol
}
