package noisesource

import "privrange/internal/stats"

// configSeed derives a stream from configured, replayable inputs — the
// sanctioned source of all randomness.
func configSeed(seed, query int64) *stats.RNG {
	return stats.NewRNG(seed).Child(query)
}
