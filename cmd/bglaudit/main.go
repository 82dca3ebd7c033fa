// Command bglaudit verifies a bglserved audit ledger offline and dumps
// its provenance chain. It is strictly read-only: the ledger file is
// scanned and every hash re-derived — entry chain, per-commit Merkle
// roots, and the anchor sidecar — without opening the file for append,
// so it is safe to run against a live daemon's ledger.
//
// By default it prints the provenance chain (model generations and the
// checkpoints taken against them) plus a verification summary; -all
// dumps every entry including per-batch ingest digests and alerts.
//
// Usage:
//
//	bglaudit /var/lib/bglserved/audit.bgll
//	bglaudit -all -json /var/lib/bglserved/audit.bgll
//
// Exit status: 0 when the ledger verifies, 1 when it is corrupt,
// tampered, or unreadable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/lifecycle"
)

func main() {
	all := flag.Bool("all", false, "dump every entry, not just the provenance chain")
	asJSON := flag.Bool("json", false, "emit entries and the summary as JSON lines")
	quiet := flag.Bool("q", false, "print only the verification verdict")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bglaudit [-all] [-json] [-q] <audit.bgll>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	var entries int
	visit := func(e ledger.ScanEntry) error {
		entries++
		if *quiet {
			return nil
		}
		if !*all && e.Kind != ledger.KindModel && e.Kind != ledger.KindCheckpoint {
			return nil
		}
		printEntry(e, *asJSON)
		return nil
	}
	sum, err := ledger.VerifyFile(ledger.OS, path, visit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bglaudit: %s: FAILED: %v\n", path, err)
		os.Exit(1)
	}
	if *asJSON {
		out, _ := json.Marshal(sum)
		fmt.Printf("%s\n", out)
		return
	}
	fmt.Printf("%s: OK — %d entries in %d commits, head seq %d root %.12s\n",
		path, sum.Entries, sum.Commits, sum.Seq, sum.Root)
	if sum.Anchored {
		fmt.Printf("  anchor honored at seq %d\n", sum.AnchorSeq)
	}
	if sum.TornBytes > 0 {
		fmt.Printf("  torn tail: %d bytes (%d uncommitted, never-acknowledged records) awaiting writer recovery\n",
			sum.TornBytes, sum.UncommittedRecords)
	}
}

// printEntry renders one sealed entry. Model and checkpoint payloads
// are decoded into their provenance; other kinds print their payload
// as-is (ingest digests and alerts are already JSON).
func printEntry(e ledger.ScanEntry, asJSON bool) {
	detail := describe(e)
	if asJSON {
		out, _ := json.Marshal(map[string]any{
			"seq":        e.Seq,
			"kind":       e.Kind.String(),
			"at":         e.At,
			"commit_seq": e.CommitSeq,
			"root":       e.Root,
			"detail":     detail,
		})
		fmt.Printf("%s\n", out)
		return
	}
	fmt.Printf("seq %4d  %-12s %s  commit %d root %.12s  %s\n",
		e.Seq, e.Kind, e.At.UTC().Format(time.RFC3339), e.CommitSeq, e.Root, detail)
}

func describe(e ledger.ScanEntry) string {
	switch e.Kind {
	case ledger.KindModel:
		var rec lifecycle.ModelLedgerRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			return fmt.Sprintf("unparseable model record: %v", err)
		}
		return fmt.Sprintf("model v%d sha %.12s (%s, trained %s)",
			rec.Version, rec.SHA256, rec.Source, rec.TrainedAt.UTC().Format(time.RFC3339))
	case ledger.KindCheckpoint:
		cp, info, err := lifecycle.DecodeCheckpoint(e.Payload)
		if err != nil {
			return fmt.Sprintf("unparseable checkpoint envelope: %v", err)
		}
		return fmt.Sprintf("checkpoint of model v%d sha %.12s (%d shards, %d bytes, saved %s)",
			cp.ModelVersion, cp.ModelSHA256, len(cp.Shards), info.Size, cp.SavedAt.UTC().Format(time.RFC3339))
	default:
		return string(e.Payload)
	}
}
