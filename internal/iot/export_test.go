package iot

// Indexed reports whether the network's base station has ever built a
// columnar index, so tests, including those that reach a network only
// through a sharded cluster, can see whether a round or a read built
// one.
func (nw *Network) Indexed() bool {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.base.indexed
}
