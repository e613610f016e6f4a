// Package platform describes the simulated computing systems: hosts with
// speeds and core counts, network links with latency and bandwidth, and
// routes between hosts — the information the paper's Figure 2 groups
// under "System Information" (hosts: speed, number of cores; network:
// topology, bandwidth, latency).
//
// Platforms can be built programmatically (Cluster, Heterogeneous) or
// loaded from a SimGrid-flavoured XML subset (see xml.go), mirroring the
// SimGrid platform files the original experiments used.
package platform

import (
	"fmt"
	"math"
	"sort"
)

// Host is a processing element container. Speed is in floating-point
// operations per second; a task of x flops executes in x/Speed seconds.
// Throughout the paper a PE is a single computing core (§II), so the
// master–worker model places one worker process per core.
type Host struct {
	Name  string
	Speed float64 // flops per second
	Cores int
}

// Link is a network link with Latency (seconds) and Bandwidth (bytes per
// second).
type Link struct {
	Name      string
	Latency   float64
	Bandwidth float64
}

// Route is an ordered sequence of links connecting two hosts. Transfer
// time of b bytes is the sum of link latencies plus b divided by the
// bottleneck (minimum) bandwidth, the standard SimGrid approximation.
type Route struct {
	Links []*Link
}

// Latency returns the end-to-end latency of the route.
func (r Route) Latency() float64 {
	var l float64
	for _, ln := range r.Links {
		l += ln.Latency
	}
	return l
}

// Bandwidth returns the bottleneck bandwidth of the route, or +Inf for an
// empty (loopback) route.
func (r Route) Bandwidth() float64 {
	bw := math.Inf(1)
	for _, ln := range r.Links {
		if ln.Bandwidth < bw {
			bw = ln.Bandwidth
		}
	}
	return bw
}

// TransferTime returns the time to move bytes over the route.
func (r Route) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return r.Latency()
	}
	bw := r.Bandwidth()
	if math.IsInf(bw, 1) {
		return r.Latency()
	}
	return r.Latency() + bytes/bw
}

// Platform is a collection of hosts, links and routes.
type Platform struct {
	hosts  map[string]*Host
	links  map[string]*Link
	routes map[[2]string]Route
}

// New returns an empty platform.
func New() *Platform { return newSized(0) }

// newSized returns an empty platform whose maps take hosts hosts, as
// many links and as many routes without growing.
func newSized(hosts int) *Platform {
	return &Platform{
		hosts:  make(map[string]*Host, hosts),
		links:  make(map[string]*Link, hosts),
		routes: make(map[[2]string]Route, hosts),
	}
}

// AddHost registers a host. Speed must be positive; Cores defaults to 1.
func (pl *Platform) AddHost(name string, speed float64, cores int) (*Host, error) {
	if name == "" {
		return nil, fmt.Errorf("platform: host name must not be empty")
	}
	if _, dup := pl.hosts[name]; dup {
		return nil, fmt.Errorf("platform: duplicate host %q", name)
	}
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return nil, fmt.Errorf("platform: host %q speed must be positive and finite, got %v", name, speed)
	}
	if cores <= 0 {
		cores = 1
	}
	h := &Host{Name: name, Speed: speed, Cores: cores}
	pl.hosts[name] = h
	return h, nil
}

// AddLink registers a network link.
func (pl *Platform) AddLink(name string, bandwidth, latency float64) (*Link, error) {
	if name == "" {
		return nil, fmt.Errorf("platform: link name must not be empty")
	}
	if _, dup := pl.links[name]; dup {
		return nil, fmt.Errorf("platform: duplicate link %q", name)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("platform: link %q bandwidth must be positive, got %v", name, bandwidth)
	}
	if latency < 0 {
		return nil, fmt.Errorf("platform: link %q latency must be non-negative, got %v", name, latency)
	}
	l := &Link{Name: name, Bandwidth: bandwidth, Latency: latency}
	pl.links[name] = l
	return l, nil
}

// AddRoute registers the route between two hosts (symmetric: it also
// serves dst→src traffic).
func (pl *Platform) AddRoute(src, dst string, linkNames ...string) error {
	if _, ok := pl.hosts[src]; !ok {
		return fmt.Errorf("platform: route source %q is not a host", src)
	}
	if _, ok := pl.hosts[dst]; !ok {
		return fmt.Errorf("platform: route destination %q is not a host", dst)
	}
	links := make([]*Link, 0, len(linkNames))
	for _, ln := range linkNames {
		l, ok := pl.links[ln]
		if !ok {
			return fmt.Errorf("platform: route %s->%s references unknown link %q", src, dst, ln)
		}
		links = append(links, l)
	}
	pl.routes[routeKey(src, dst)] = Route{Links: links}
	return nil
}

func routeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Host returns the named host, or an error.
func (pl *Platform) Host(name string) (*Host, error) {
	h, ok := pl.hosts[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown host %q", name)
	}
	return h, nil
}

// Link returns the named link, or an error.
func (pl *Platform) Link(name string) (*Link, error) {
	l, ok := pl.links[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown link %q", name)
	}
	return l, nil
}

// Route returns the route between two hosts. Loopback (src == dst) is an
// implicit empty route with zero cost. A missing route is an error: the
// master–worker model requires master↔worker connectivity.
func (pl *Platform) Route(src, dst string) (Route, error) {
	if src == dst {
		return Route{}, nil
	}
	r, ok := pl.routes[routeKey(src, dst)]
	if !ok {
		return Route{}, fmt.Errorf("platform: no route between %q and %q", src, dst)
	}
	return r, nil
}

// Hosts returns all hosts sorted by name for deterministic iteration.
func (pl *Platform) Hosts() []*Host {
	out := make([]*Host, 0, len(pl.hosts))
	for _, h := range pl.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns all links sorted by name.
func (pl *Platform) Links() []*Link {
	out := make([]*Link, 0, len(pl.links))
	for _, l := range pl.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumHosts returns the number of hosts.
func (pl *Platform) NumHosts() int { return len(pl.hosts) }

// Cluster builds a homogeneous star cluster: n+1 hosts named
// prefix-0 … prefix-n (prefix-0 is conventionally the master), each with
// the given speed, connected through per-host links of the given
// bandwidth/latency and a shared backbone. Only master↔worker routes are
// installed — the paper notes (§III-A) that communication happens only
// between the master and the workers, so a full network transformation is
// unnecessary. This stands in for both the 96-node BBN GP-1000 of the TSS
// publication and the taurus cluster of §V.
func Cluster(prefix string, n int, speed, bandwidth, latency float64) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("platform: cluster needs at least 1 worker, got %d", n)
	}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = speed
	}
	return Heterogeneous(prefix, speeds, bandwidth, latency)
}

// Heterogeneous builds a star cluster whose worker speeds are given
// explicitly (host i+1 gets speeds[i]); the master runs at the maximum
// speed. Used by the weighted-factoring examples.
func Heterogeneous(prefix string, speeds []float64, bandwidth, latency float64) (*Platform, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("platform: need at least one worker speed")
	}
	max := speeds[0]
	for _, s := range speeds {
		if s > max {
			max = s
		}
	}
	// n+1 hosts and links (a link per worker and the backbone), n routes.
	pl := newSized(len(speeds) + 1)
	master := fmt.Sprintf("%s-0", prefix)
	if _, err := pl.AddHost(master, max, 1); err != nil {
		return nil, err
	}
	if _, err := pl.AddLink(prefix+"-backbone", bandwidth, latency); err != nil {
		return nil, err
	}
	for i, s := range speeds {
		name := fmt.Sprintf("%s-%d", prefix, i+1)
		if _, err := pl.AddHost(name, s, 1); err != nil {
			return nil, err
		}
		linkName := fmt.Sprintf("%s-link-%d", prefix, i+1)
		if _, err := pl.AddLink(linkName, bandwidth, latency); err != nil {
			return nil, err
		}
		if err := pl.AddRoute(master, name, prefix+"-backbone", linkName); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// FreeNetwork returns the bandwidth/latency pair the paper uses to make
// communication costless when replicating the BOLD publication's
// simulator (§III-B): "setting the network parameters bandwidth to a very
// high value and the latency to a very low value".
func FreeNetwork() (bandwidth, latency float64) {
	return 1e15, 1e-12
}
