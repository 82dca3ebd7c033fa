package bglsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
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

// TestGenerateMatchesParentShapes pins two more shapes to digests
// written by the record-sorting Generate: the benchmark's four-rack ANL
// machine, and a profile whose Start has a sub-second part. Both logs
// fill several of the expander's blocks.
func TestGenerateMatchesParentShapes(t *testing.T) {
	racks := ANLProfile()
	racks.Machine.Racks = 4
	racks.Seed = 7
	subsec := ANLProfile()
	subsec.Start = subsec.Start.Add(437 * time.Millisecond)
	subsec.Seed = 7
	for _, tc := range []struct {
		name    string
		p       Profile
		records int
		digest  string
	}{
		{"ANL 4 racks x0.02", racks.Scaled(0.02), 91246, "4e5a37eee7524b65a9104e555115a984f576c6961581d07bfd40ef3b285653ce"},
		{"ANL sub-second start x0.01", subsec.Scaled(0.01), 38042, "b8b824673679b985488af96964e19e748bd3cce8fc7c70437e3dd42cec76e704"},
	} {
		res, err := Generate(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) != tc.records {
			t.Errorf("%s: %d records, want %d", tc.name, len(res.Events), tc.records)
		}
		if tc.records <= 2*blockLen {
			t.Errorf("%s: %d records fill under three blocks of %d", tc.name, tc.records, blockLen)
		}
		if got := streamDigest(res); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
