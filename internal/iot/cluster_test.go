package iot_test

import (
	"testing"

	"privrange/internal/iot"
	"privrange/internal/shard"
)

// TestClusterRoundBuildsNoMemberIndex: a sharded cluster reads its
// members only through State and builds its own composed index, so the
// members' collection and ingest rounds never build one.
func TestClusterRoundBuildsNoMemberIndex(t *testing.T) {
	t.Parallel()
	parts := make([][]float64, 16)
	for g := range parts {
		for i := 0; i < 200; i++ {
			parts[g] = append(parts[g], float64((g*37+i*11)%500))
		}
	}
	cl, err := shard.New(parts, 4, iot.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	round := make([][]float64, len(parts))
	for g := range round {
		round[g] = []float64{float64(g)}
	}
	if err := cl.IngestRound(round); err != nil {
		t.Fatal(err)
	}
	if _, idx, _, _, _, _, _ := cl.Snapshot(); idx == nil {
		t.Fatal("cluster snapshot carries no composed index")
	}
	var members []*iot.Network
	for s := 0; s < cl.NumShards(); s++ {
		nw := cl.Shard(s)
		if nw == nil {
			continue
		}
		members = append(members, nw)
		if nw.Indexed() {
			t.Errorf("shard %d built a member index", s)
		}
	}
	if len(members) < 2 {
		t.Fatalf("only %d member networks; the check needs several", len(members))
	}
	// The probe sees a build where one happens.
	if _, idx, _, _, _, _, _ := members[0].Snapshot(); idx == nil || !members[0].Indexed() {
		t.Error("a member Snapshot built no index")
	}
}
