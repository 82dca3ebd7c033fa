package stats

import (
	"sort"
	"time"
)

// TimedEvent is the minimal view of a fatal event the temporal
// correlation analysis needs: when it happened and which category
// (an opaque small integer, e.g. catalog.Main) it belongs to.
type TimedEvent struct {
	Time     time.Time
	Category int
}

// FollowStats captures, per category, how often a fatal event of that
// category is followed by another fatal event within (MinLead, Window]
// — the temporal correlation the statistical predictor exploits
// (paper §3.2.1: "if a network or I/O stream failure is reported, it is
// predicted that another failure is possible within a time period of
// 5 minutes to 1 hour").
type FollowStats struct {
	MinLead  time.Duration
	Window   time.Duration
	Total    map[int]int // events per category
	Followed map[int]int // events per category with a follower in (MinLead, Window]
}

// AnalyzeFollow computes FollowStats over fatal events. Events are
// sorted by time internally; the input slice is not modified.
// MinLead < 0 is treated as 0. A follower is any later fatal event
// (of any category) whose gap g satisfies minLead < g <= window.
func AnalyzeFollow(events []TimedEvent, minLead, window time.Duration) *FollowStats {
	if minLead < 0 {
		minLead = 0
	}
	sorted := append([]TimedEvent(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	fs := &FollowStats{
		MinLead:  minLead,
		Window:   window,
		Total:    make(map[int]int),
		Followed: make(map[int]int),
	}
	for i, ev := range sorted {
		fs.Total[ev.Category]++
		// Scan forward until the gap leaves the window. Logs cluster, so
		// this is near-linear overall.
		for j := i + 1; j < len(sorted); j++ {
			gap := sorted[j].Time.Sub(ev.Time)
			if gap > window {
				break
			}
			if gap > minLead {
				fs.Followed[ev.Category]++
				break
			}
		}
	}
	return fs
}

// Merge folds another analysis's counts into fs. Analyzing segments
// of a discontiguous stream separately and merging keeps follow
// windows from spanning the gaps between segments (the
// cross-validation protocol excises a test fold from the middle of
// the training stream); both analyses must share MinLead and Window.
func (fs *FollowStats) Merge(other *FollowStats) {
	for c, n := range other.Total {
		fs.Total[c] += n
	}
	for c, n := range other.Followed {
		fs.Followed[c] += n
	}
}

// Probability returns the empirical P(another fatal within the window |
// fatal of category c), or 0 if the category was never seen.
func (fs *FollowStats) Probability(category int) float64 {
	total := fs.Total[category]
	if total == 0 {
		return 0
	}
	return float64(fs.Followed[category]) / float64(total)
}

// Categories returns the categories seen, sorted ascending.
func (fs *FollowStats) Categories() []int {
	out := make([]int, 0, len(fs.Total))
	for c := range fs.Total {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
