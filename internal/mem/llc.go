package mem

import (
	"fmt"
	"sort"
)

// LLC models the shared last-level cache of one socket at occupancy
// granularity: it tracks how many bytes each owner (a core, a process, or
// the DDIO partition used by I/O agents) holds, evicting proportionally from
// other owners when capacity is exceeded. This is the level of detail Figs
// 12/13 require — who occupies the cache and by how much — without
// simulating individual lines.
type LLC struct {
	capacity int64
	ways     int
	ddioWays int

	occ   map[string]int64
	total int64
}

// LLCConfig sizes an LLC.
type LLCConfig struct {
	Capacity int64 // bytes
	Ways     int   // total ways (SPR: 15)
	DDIOWays int   // ways available to DDIO / cache-control writes (default 2)
}

// NewLLC builds an LLC from cfg.
func NewLLC(cfg LLCConfig) *LLC {
	if cfg.Capacity <= 0 {
		panic("mem: LLC capacity must be positive")
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 15
	}
	if cfg.DDIOWays <= 0 {
		cfg.DDIOWays = 2
	}
	if cfg.DDIOWays > cfg.Ways {
		panic(fmt.Sprintf("mem: DDIO ways %d exceed total ways %d", cfg.DDIOWays, cfg.Ways))
	}
	return &LLC{
		capacity: cfg.Capacity,
		ways:     cfg.Ways,
		ddioWays: cfg.DDIOWays,
		occ:      make(map[string]int64),
	}
}

// Capacity returns the LLC size in bytes.
func (c *LLC) Capacity() int64 { return c.capacity }

// DDIOCapacity returns the bytes available to DDIO-steered writes.
func (c *LLC) DDIOCapacity() int64 {
	return c.capacity / int64(c.ways) * int64(c.ddioWays)
}

// SetDDIOWays reconfigures the DDIO partition (the §6.2 tuning knob).
func (c *LLC) SetDDIOWays(n int) {
	if n <= 0 || n > c.ways {
		panic(fmt.Sprintf("mem: invalid DDIO ways %d", n))
	}
	c.ddioWays = n
}

// Insert allocates n bytes in the cache on behalf of owner, evicting
// proportionally from all owners if the cache overflows. It returns the
// bytes evicted from owners other than the inserter (the pollution damage).
func (c *LLC) Insert(owner string, n int64) int64 {
	if n <= 0 {
		return 0
	}
	c.occ[owner] += n
	c.total += n
	return c.shrinkTo(c.capacity, owner)
}

// InsertDDIO allocates n bytes via the DDIO partition: the owner's DDIO
// footprint is capped at the partition size, so streaming writes cannot
// displace more than the DDIO ways (the §4.5 non-pollution property). It
// returns the bytes that overflowed ("leaked") past the partition to memory.
func (c *LLC) InsertDDIO(owner string, n int64) (leaked int64) {
	if n <= 0 {
		return 0
	}
	cap := c.DDIOCapacity()
	cur := c.occ[owner]
	fit := cap - cur
	if fit <= 0 {
		return n
	}
	if fit > n {
		fit = n
	}
	c.occ[owner] += fit
	c.total += fit
	c.shrinkTo(c.capacity, owner)
	return n - fit
}

// Evict removes up to n bytes owned by owner (as a cache-flush or natural
// invalidation would) and returns the bytes actually removed.
func (c *LLC) Evict(owner string, n int64) int64 {
	cur := c.occ[owner]
	if n > cur {
		n = cur
	}
	c.occ[owner] = cur - n
	c.total -= n
	if c.occ[owner] == 0 {
		delete(c.occ, owner)
	}
	return n
}

// Occupancy returns the bytes currently held by owner.
func (c *LLC) Occupancy(owner string) int64 { return c.occ[owner] }

// Total returns the total occupied bytes.
func (c *LLC) Total() int64 { return c.total }

// Owners returns the current owners sorted by name (deterministic order for
// reports).
func (c *LLC) Owners() []string {
	names := make([]string, 0, len(c.occ))
	for k := range c.occ {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// shrinkTo evicts proportionally from owners other than inserter until total
// occupancy fits in limit; if the inserter alone exceeds the limit it is
// trimmed too. Returns bytes evicted from others.
func (c *LLC) shrinkTo(limit int64, inserter string) int64 {
	if c.total <= limit {
		return 0
	}
	excess := c.total - limit
	othersTotal := c.total - c.occ[inserter]
	var victims int64
	if othersTotal > 0 {
		names := c.Owners()
		for _, name := range names {
			if name == inserter {
				continue
			}
			share := float64(c.occ[name]) / float64(othersTotal)
			take := int64(share * float64(excess))
			if take > c.occ[name] {
				take = c.occ[name]
			}
			c.occ[name] -= take
			c.total -= take
			victims += take
			if c.occ[name] == 0 {
				delete(c.occ, name)
			}
		}
	}
	// Rounding or a dominant inserter can leave residual excess: trim it.
	if c.total > limit {
		over := c.total - limit
		c.occ[inserter] -= over
		c.total -= over
		if c.occ[inserter] <= 0 {
			delete(c.occ, inserter)
		}
	}
	return victims
}
