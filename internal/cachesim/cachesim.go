// Package cachesim reimplements the paper's CacheLib/CacheBench case study
// (Appendix B, Fig 19): an LRU item cache whose get/set paths perform real
// memory copies of a bimodal size distribution, driven by a configurable
// number of software threads over a configurable number of hardware cores.
// Copies at or above the DTO threshold (8 KB) are offloaded to DSA through
// four shared work queues; the paper's measured distribution — ~4.8% of
// memcpy() calls are ≥8 KB but carry ~96.4% of the bytes — is reproduced by
// the size generator.
package cachesim

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/dto"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// Cache is a byte-capacity LRU item cache in simulated memory.
type Cache struct {
	as       *mem.AddressSpace
	node     *mem.Node
	capacity int64
	used     int64
	items    map[uint64]*list.Element
	lru      *list.List              // front = most recent
	pool     map[int64][]*mem.Buffer // recycled buffers by power-of-two class

	Hits, Misses, Evictions int64
}

// classOf rounds size up to its power-of-two allocation class (CacheLib's
// slab-class analog).
func classOf(size int64) int64 {
	c := int64(64)
	for c < size {
		c <<= 1
	}
	return c
}

type entry struct {
	key  uint64
	buf  *mem.Buffer
	size int64
}

// NewCache creates a cache of the given byte capacity.
func NewCache(as *mem.AddressSpace, node *mem.Node, capacity int64) *Cache {
	return &Cache{
		as: as, node: node, capacity: capacity,
		items: make(map[uint64]*list.Element),
		lru:   list.New(),
		pool:  make(map[int64][]*mem.Buffer),
	}
}

// Used returns the bytes currently stored.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of items.
func (c *Cache) Len() int { return len(c.items) }

// Find returns the item's buffer and size, promoting it in LRU order.
func (c *Cache) Find(key uint64) (*mem.Buffer, int64, bool) {
	el, ok := c.items[key]
	if !ok {
		c.Misses++
		return nil, 0, false
	}
	c.Hits++
	c.lru.MoveToFront(el)
	en := el.Value.(*entry)
	return en.buf, en.size, true
}

// Allocate inserts (or replaces) an item of the given size, evicting LRU
// items as needed, and returns its buffer. Backing buffers are recycled
// through power-of-two slab classes, as CacheLib's allocator does.
func (c *Cache) Allocate(key uint64, size int64) *mem.Buffer {
	if el, ok := c.items[key]; ok {
		c.lru.Remove(el)
		c.release(el.Value.(*entry))
		delete(c.items, key)
	}
	for c.used+size > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		en := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.items, en.key)
		c.release(en)
		c.Evictions++
	}
	class := classOf(size)
	var buf *mem.Buffer
	if free := c.pool[class]; len(free) > 0 {
		buf = free[len(free)-1]
		c.pool[class] = free[:len(free)-1]
	} else {
		buf = c.as.Alloc(class, mem.OnNode(c.node))
	}
	en := &entry{key: key, buf: buf, size: size}
	c.items[key] = c.lru.PushFront(en)
	c.used += size
	return buf
}

// release returns an entry's buffer to its slab class.
func (c *Cache) release(en *entry) {
	c.used -= en.size
	class := classOf(en.size)
	c.pool[class] = append(c.pool[class], en.buf)
}

// SizeGen draws item sizes from the paper's bimodal distribution.
type SizeGen struct {
	r *sim.Rand
	// BigFrac is the fraction of operations with sizes ≥ 8 KB (paper:
	// 0.048, carrying 96.4% of copied bytes).
	BigFrac float64
}

// NewSizeGen seeds a generator with the paper's distribution.
func NewSizeGen(seed uint64) *SizeGen {
	return &SizeGen{r: sim.NewRand(seed), BigFrac: 0.048}
}

// Next draws one item size.
func (g *SizeGen) Next() int64 {
	if g.r.Float64() < g.BigFrac {
		// 8 KB .. 136 KB; mean ≈ 72 KB.
		return 8<<10 + g.r.Int63n(128<<10)
	}
	// 64 B .. 4 KB; mean ≈ 2 KB.
	return 64 + g.r.Int63n(4<<10-64)
}

// Config drives one benchmark run (one bar group in Fig 19).
type Config struct {
	HWCores   int // h: hardware cores available
	Threads   int // s: software threads
	OpsPerThd int
	CacheSize int64
	KeySpace  int
	GetRatio  float64 // fraction of ops that are gets
	Seed      uint64

	// WQs, when set, gives each thread a tenant over them with the DTO
	// policy (dto.Policy): ≥8 KB copies are offloaded (the paper's four
	// shared WQs) and the rest run on the core. Nil means CPU-only.
	WQs []*dsa.WQ

	// LookupCost and InsertCost are the cache bookkeeping CPU costs per
	// operation (hash, LRU, allocator).
	LookupCost time.Duration
	InsertCost time.Duration
}

// Result reports rates and tail latencies (Fig 19's four panels).
type Result struct {
	GetRate   float64       // gets per second
	SetRate   float64       // sets per second
	FindTail  time.Duration // highest-percentile find() latency observed
	AllocTail time.Duration // highest-percentile allocate() latency observed
	Verified  int64         // items whose content check passed
	Corrupt   int64
}

// Run executes the benchmark on engine e over system sys, with items and
// scratch buffers on node.
func Run(e *sim.Engine, sys *mem.System, node *mem.Node, model cpu.Model, cfg Config) (Result, error) {
	if cfg.HWCores <= 0 || cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("cachesim: cores and threads must be positive")
	}
	if cfg.LookupCost == 0 {
		cfg.LookupCost = 250 * time.Nanosecond
	}
	if cfg.InsertCost == 0 {
		cfg.InsertCost = 400 * time.Nanosecond
	}
	if cfg.GetRatio == 0 {
		cfg.GetRatio = 0.8
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = 4096
	}
	as := mem.NewAddressSpace(100)
	cache := NewCache(as, node, cfg.CacheSize)

	// One offload service fronts the shared WQs for every thread; each
	// thread is a DTO-policy tenant sharing the process address space.
	var svc *offload.Service
	if len(cfg.WQs) > 0 {
		var err error
		svc, err = offload.NewService(e, sys, cfg.WQs, offload.WithCPUModel(model))
		if err != nil {
			return Result{}, err
		}
	}

	// Oversubscription: s threads time-share h cores; CPU time — the
	// bookkeeping and every copy a core runs, in either mode — inflates
	// by s/h when s > h. DSA wait time does not (the device runs
	// regardless of core scheduling).
	inflate := 1.0
	if cfg.Threads > cfg.HWCores {
		inflate = float64(cfg.Threads) / float64(cfg.HWCores)
	}

	res := Result{}
	var gets, sets int64
	var findLat, allocLat []time.Duration
	var endTime sim.Time
	var runErr error

	for th := 0; th < cfg.Threads; th++ {
		th := th
		core := cpu.NewCore(th, 0, sys, as, model)
		var tn *offload.Tenant
		if svc != nil {
			var err error
			tn, err = svc.NewTenant(offload.SharedSpace(as), offload.OnCore(core), offload.TenantPolicy(dto.Policy()))
			if err != nil {
				return Result{}, err
			}
		}
		scratch := as.Alloc(144<<10, mem.OnNode(node))
		sizes := NewSizeGen(cfg.Seed + uint64(th)*7919)
		keys := sim.NewRand(cfg.Seed + uint64(th)*104729 + 1)

		e.Go(fmt.Sprintf("cachethread%d", th), func(p *sim.Proc) {
			chargedSleep := func(d time.Duration) {
				d = time.Duration(float64(d) * inflate)
				p.Sleep(d)
				core.ChargeBusy(d)
			}
			memcpy := func(dst, src mem.Addr, n int64) error {
				if tn != nil {
					f, err := tn.Copy(p, dst, src, n)
					if err != nil {
						return err
					}
					res, err := f.Wait(p, tn.Policy().Wait)
					f.Release()
					if err == nil && !res.Hardware {
						// A copy the core ran time-shares it like any
						// other CPU work: top its Duration up to s/h.
						p.Sleep(time.Duration(float64(res.Duration)*inflate) - res.Duration)
					}
					return err
				}
				dur, err := core.Memcpy(dst, src, n)
				if err != nil {
					return err
				}
				p.Sleep(time.Duration(float64(dur) * inflate))
				return nil
			}
			set := func(key uint64, size int64) error {
				start := p.Now()
				chargedSleep(cfg.InsertCost)
				// Stage the new value in scratch, stamp it, then copy
				// into the cache item (allocate() + payload copy).
				binary.LittleEndian.PutUint64(scratch.Bytes(), key)
				buf := cache.Allocate(key, size)
				if err := memcpy(buf.Addr(0), scratch.Addr(0), size); err != nil {
					return err
				}
				sets++
				allocLat = append(allocLat, p.Now()-start)
				return nil
			}
			for i := 0; i < cfg.OpsPerThd; i++ {
				key := uint64(keys.Intn(cfg.KeySpace))
				if keys.Float64() < cfg.GetRatio {
					start := p.Now()
					chargedSleep(cfg.LookupCost)
					buf, size, ok := cache.Find(key)
					if ok {
						if err := memcpy(scratch.Addr(0), buf.Addr(0), size); err != nil {
							runErr = err
							return
						}
						if binary.LittleEndian.Uint64(scratch.Bytes()) == key {
							res.Verified++
						} else {
							res.Corrupt++
						}
						gets++
						findLat = append(findLat, p.Now()-start)
					} else if err := set(key, sizes.Next()); err != nil {
						runErr = err
						return
					}
				} else if err := set(key, sizes.Next()); err != nil {
					runErr = err
					return
				}
			}
			if p.Now() > endTime {
				endTime = p.Now()
			}
		})
	}
	e.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	if endTime > 0 {
		secs := float64(endTime) / 1e9
		res.GetRate = float64(gets) / secs
		res.SetRate = float64(sets) / secs
	}
	res.FindTail = tail(findLat, 0.99999)
	res.AllocTail = tail(allocLat, 0.99999)
	return res, nil
}

// tail returns the q-quantile of samples (or the max when too few samples
// exist to resolve q).
func tail(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)))
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}
