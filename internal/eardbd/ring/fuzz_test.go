package ring

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzRing builds rings from arbitrary member sets and key sets,
// checking the package's contracts on every input: no panic on any
// byte soup, placement that is a pure function of the member set (the
// set listed in reverse places every key alike), and a ring with one
// member more moving keys only onto that member.
//
// The script lists one member per '|'-separated token; empty tokens
// are skipped and repeats collapse, so every script names a set. The
// last member of the set is the one the smaller ring lacks.
func FuzzRing(f *testing.F) {
	f.Add("s1|s2|s3", "node1|node2|node3", int8(3))
	f.Add("a|b|c|b", "x|y|z", int8(1))
	f.Add("", "", int8(0))
	f.Add("\x00|s1|\xff\xfe", "\x00|\xff", int8(7))
	f.Fuzz(func(t *testing.T, script, keyBlob string, replicas int8) {
		var members []string
		for _, tok := range strings.Split(script, "|") {
			if tok != "" && !slices.Contains(members, tok) {
				members = append(members, tok)
			}
		}
		r, err := NewWithMembers(int(replicas), members) // <= 0 falls back to the default
		if err != nil {
			t.Fatalf("ring over %q: %v", members, err)
		}
		reversed := slices.Clone(members)
		slices.Reverse(reversed)
		rev, err := NewWithMembers(int(replicas), reversed)
		if err != nil {
			t.Fatal(err)
		}
		got := owners(r, keyBlob)
		if want := owners(rev, keyBlob); !maps.Equal(got, want) {
			t.Fatalf("members %q place keys %v, in reverse order %v", members, got, want)
		}
		if len(members) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty ring owns keys: %v", got)
			}
			return
		}
		last := members[len(members)-1]
		smaller, err := NewWithMembers(int(replicas), members[:len(members)-1])
		if err != nil {
			t.Fatal(err)
		}
		for key, was := range owners(smaller, keyBlob) {
			if now := got[key]; now != was && now != last {
				t.Fatalf("adding %q moved key %q: %q -> %q", last, key, was, now)
			}
		}
	})
}

// owners maps every '|'-separated key in blob (plus a fixed probe set)
// to its current owner; an empty ring yields an empty map.
func owners(r *Ring, blob string) map[string]string {
	out := map[string]string{}
	probe := strings.Split(blob, "|")
	for i := 0; i < 8; i++ {
		probe = append(probe, fmt.Sprintf("probe%d", i))
	}
	for _, k := range probe {
		if o, ok := r.Owner(k); ok {
			out[k] = o
		}
	}
	return out
}
