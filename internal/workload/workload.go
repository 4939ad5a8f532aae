// Package workload implements the paper's four synthetic request workloads
// (§6.1): Zipf, hot-sites, hot-pages and regional, plus a uniform baseline.
//
// A Generator maps (requesting gateway, randomness) to the object requested.
// Generators are deterministic given their construction seed, so entire
// simulation runs are reproducible. A real-life workload is expected to be
// a mix of these shapes; the mix helper composes them.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"radar/internal/object"
	"radar/internal/topology"
)

// Generator produces the object requested by a client entering at a gateway.
type Generator interface {
	// Name identifies the workload in reports ("zipf", "hot-sites", ...).
	Name() string
	// Next draws the next requested object for a request entering the
	// platform at gateway g, using rng for all randomness.
	Next(g topology.NodeID, rng *rand.Rand) object.ID
}

// Uniform requests every object with equal probability from every gateway.
type Uniform struct {
	count int
}

// NewUniform returns a uniform generator over u's objects.
func NewUniform(u object.Universe) (*Uniform, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &Uniform{count: u.Count}, nil
}

// Name implements Generator.
func (w *Uniform) Name() string { return "uniform" }

// Next implements Generator.
func (w *Uniform) Next(_ topology.NodeID, rng *rand.Rand) object.ID {
	return object.ID(rng.Intn(w.count))
}

// Zipf requests pages according to Zipf's law, where the page number is its
// popularity rank (object 0 is the most popular), sampled with the Reeds
// closed-form approximation the paper uses.
type Zipf struct {
	sampler *ZipfReeds
}

// NewZipf returns a Zipf generator over u's objects.
func NewZipf(u object.Universe) (*Zipf, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &Zipf{sampler: NewZipfReeds(u.Count)}, nil
}

// Name implements Generator.
func (w *Zipf) Name() string { return "zipf" }

// Next implements Generator.
func (w *Zipf) Next(_ topology.NodeID, rng *rand.Rand) object.ID {
	return object.ID(w.sampler.Rank(rng) - 1)
}

// HotSites models entire Web sites varying in popularity: sites (nodes) are
// randomly split into hot (1-p fraction) and cold (p fraction); with
// probability p a request targets a random page initially assigned to a hot
// site, otherwise a random page from a cold site. The paper uses p = 0.9.
type HotSites struct {
	p         float64
	hotPages  []object.ID
	coldPages []object.ID
}

// NewHotSites partitions the numNodes sites with the given seed and builds
// the page buckets from the round-robin initial assignment.
func NewHotSites(u object.Universe, numNodes int, p float64, seed int64) (*HotSites, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("workload: numNodes %d must be positive", numNodes)
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("workload: hot-sites p %v must be in (0,1)", p)
	}
	rng := Stream(seed, 0x4053)
	perm := rng.Perm(numNodes)
	numHot := int(float64(numNodes)*(1-p) + 0.5)
	if numHot < 1 {
		numHot = 1
	}
	if numHot >= numNodes {
		numHot = numNodes - 1
	}
	hotSite := make([]bool, numNodes)
	for _, s := range perm[:numHot] {
		hotSite[s] = true
	}
	w := &HotSites{p: p}
	for i := 0; i < u.Count; i++ {
		id := object.ID(i)
		if hotSite[u.HomeNode(id, numNodes)] {
			w.hotPages = append(w.hotPages, id)
		} else {
			w.coldPages = append(w.coldPages, id)
		}
	}
	if len(w.hotPages) == 0 || len(w.coldPages) == 0 {
		return nil, fmt.Errorf("workload: hot-sites split left a bucket empty (objects=%d nodes=%d)", u.Count, numNodes)
	}
	return w, nil
}

// Name implements Generator.
func (w *HotSites) Name() string { return "hot-sites" }

// Next implements Generator.
func (w *HotSites) Next(_ topology.NodeID, rng *rand.Rand) object.ID {
	if rng.Float64() < w.p {
		return w.hotPages[rng.Intn(len(w.hotPages))]
	}
	return w.coldPages[rng.Intn(len(w.coldPages))]
}

// HotPages models uniformly more popular objects: pages are split into hot
// and cold buckets in ratio 1:9 and a hot page is requested with
// probability 0.9 (paper §6.1).
type HotPages struct {
	pHot      float64
	hotPages  []object.ID
	coldPages []object.ID
}

// NewHotPages builds the generator; hotFraction is the fraction of pages in
// the hot bucket (paper: 0.1) and pHot the probability of requesting a hot
// page (paper: 0.9). The hot pages are drawn randomly with the given seed,
// which spreads them across sites like the paper's setup ("in hot-pages
// they are well distributed").
func NewHotPages(u object.Universe, hotFraction, pHot float64, seed int64) (*HotPages, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if hotFraction <= 0 || hotFraction >= 1 {
		return nil, fmt.Errorf("workload: hot fraction %v must be in (0,1)", hotFraction)
	}
	if pHot <= 0 || pHot >= 1 {
		return nil, fmt.Errorf("workload: pHot %v must be in (0,1)", pHot)
	}
	numHot := int(float64(u.Count)*hotFraction + 0.5)
	if numHot < 1 {
		numHot = 1
	}
	if numHot >= u.Count {
		numHot = u.Count - 1
	}
	rng := Stream(seed, 0x9a6e)
	perm := rng.Perm(u.Count)
	w := &HotPages{pHot: pHot}
	hot := make([]bool, u.Count)
	for _, i := range perm[:numHot] {
		hot[i] = true
	}
	for i := 0; i < u.Count; i++ {
		if hot[i] {
			w.hotPages = append(w.hotPages, object.ID(i))
		} else {
			w.coldPages = append(w.coldPages, object.ID(i))
		}
	}
	return w, nil
}

// Name implements Generator.
func (w *HotPages) Name() string { return "hot-pages" }

// Next implements Generator.
func (w *HotPages) Next(_ topology.NodeID, rng *rand.Rand) object.ID {
	if rng.Float64() < w.pHot {
		return w.hotPages[rng.Intn(len(w.hotPages))]
	}
	return w.coldPages[rng.Intn(len(w.coldPages))]
}

// Regional models popularity varying by region: each of the four regions is
// assigned a contiguous 1% slice of the object numbers as its preferred
// set; a node requests a random preferred object with probability 0.9 and a
// random object from the whole set otherwise (paper §6.1).
type Regional struct {
	pLocal    float64
	count     int
	preferred map[topology.Region][]object.ID
	regionOf  []topology.Region
}

// NewRegional builds the generator from the topology's region assignment.
// preferredFraction is the slice of the namespace preferred per region
// (paper: 0.01); pLocal the probability of a preferred request (paper: 0.9).
func NewRegional(u object.Universe, topo *topology.Topology, preferredFraction, pLocal float64) (*Regional, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if preferredFraction <= 0 || preferredFraction >= 1 {
		return nil, fmt.Errorf("workload: preferred fraction %v must be in (0,1)", preferredFraction)
	}
	if pLocal <= 0 || pLocal >= 1 {
		return nil, fmt.Errorf("workload: pLocal %v must be in (0,1)", pLocal)
	}
	per := int(float64(u.Count)*preferredFraction + 0.5)
	if per < 1 {
		per = 1
	}
	regions := topology.Regions()
	if per*len(regions) > u.Count {
		return nil, fmt.Errorf("workload: %d objects cannot hold %d regions x %d preferred", u.Count, len(regions), per)
	}
	w := &Regional{
		pLocal:    pLocal,
		count:     u.Count,
		preferred: make(map[topology.Region][]object.ID, len(regions)),
		regionOf:  make([]topology.Region, topo.NumNodes()),
	}
	for ri, r := range regions {
		ids := make([]object.ID, 0, per)
		for i := ri * per; i < (ri+1)*per; i++ {
			ids = append(ids, object.ID(i))
		}
		w.preferred[r] = ids
	}
	for _, n := range topo.Nodes() {
		w.regionOf[n.ID] = n.Region
	}
	return w, nil
}

// Name implements Generator.
func (w *Regional) Name() string { return "regional" }

// Next implements Generator.
func (w *Regional) Next(g topology.NodeID, rng *rand.Rand) object.ID {
	if pref := w.preferred[w.regionOf[g]]; len(pref) > 0 && rng.Float64() < w.pLocal {
		return pref[rng.Intn(len(pref))]
	}
	return object.ID(rng.Intn(w.count))
}

// containsID reports whether the sorted slice contains id.
func containsID(sorted []object.ID, id object.ID) bool {
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case sorted[mid] == id:
			return true
		case sorted[mid] < id:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return false
}

// IsHot reports whether the page is in the hot bucket; exposed for
// analysis tools and tests. The hot bucket is built in ascending ID order.
func (w *HotPages) IsHot(id object.ID) bool { return containsID(w.hotPages, id) }

// IsHot reports whether the page is initially assigned to a hot site;
// exposed for analysis tools and tests.
func (w *HotSites) IsHot(id object.ID) bool { return containsID(w.hotPages, id) }

// Names lists what Named builds: the paper's four synthetic workloads
// (§6.1) and a uniform control.
var Names = []string{"zipf", "hot-sites", "hot-pages", "regional", "uniform"}

// ErrUnknown reports a workload name outside Names.
var ErrUnknown = errors.New("workload: unknown workload")

// Named builds a workload by name with the paper's §6.1 skew constants;
// seed fixes the random choice of hot sites and pages.
func Named(name string, u object.Universe, topo *topology.Topology, seed int64) (Generator, error) {
	switch name {
	case "zipf":
		return NewZipf(u)
	case "hot-sites": // 90% of demand on the pages of ~10% of the sites
		return NewHotSites(u, topo.NumNodes(), 0.9, seed)
	case "hot-pages": // 90% of demand on 10% of the pages
		return NewHotPages(u, 0.1, 0.9, seed)
	case "regional": // 90% of a region's demand on its preferred 1% of the pages
		return NewRegional(u, topo, 0.01, 0.9)
	case "uniform":
		return NewUniform(u)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
}
