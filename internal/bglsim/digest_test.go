package bglsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// parentDigests are SHA-256 digests over every record Generate emits
// for each profile at scale 0.05 and seed 7, written from the
// record-sorting Generate before it switched to sorting keys. Any
// change to the generated stream, its order or its RecIDs moves them.
var parentDigests = map[string]string{
	"ANL":  "566d4a659ccbb8ae7533e5914de2d4d02c329216fdbf0399667c594992b16f2f",
	"SDSC": "a5c1d28eb77d374ea888e1eff4a219d55ddf8817af0810f95704a2d7d83cae57",
}

// streamDigest hashes every field of every record in order.
func streamDigest(res *Result) string {
	h := sha256.New()
	for i := range res.Events {
		e := &res.Events[i]
		fmt.Fprintf(h, "%d|%s|%d|%d|%+v|%q|%q|%d\n",
			e.RecID, e.Type, e.Time.UnixNano(), e.JobID, e.Location, e.EntryData, e.Facility, int(e.Severity))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateMatchesParentDigest(t *testing.T) {
	for _, p := range Profiles() {
		p.Seed = 7
		res, err := Generate(p.Scaled(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(res); got != parentDigests[p.Name] {
			t.Errorf("%s: %d records digest %s, want %s", p.Name, len(res.Events), got, parentDigests[p.Name])
		}
	}
}
