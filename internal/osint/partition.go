package osint

// World partitioning for the sharded TKG build (internal/shard): the
// timeline is cut into contiguous month windows, one per shard, balanced
// by pulse count rather than month count so a burst month does not turn
// one shard into the straggler that dominates wall-clock. Campaigns are
// month-local in the generator (CampaignSize events inside one group's
// stream), so month windows approximate campaign boundaries — the
// cross-window edges that remain (long-lived infrastructure reuse) are
// exactly what the merge phase stitches.

// Window is a half-open month range [Lo, Hi).
type Window struct {
	Lo, Hi int
}

// PartitionWindows cuts months [0, len(counts)) into at most n contiguous
// windows whose per-window totals (sum of counts) are as balanced as a
// greedy left-to-right cut allows. Every returned window is non-empty in
// months; windows with zero pulses are possible when counts has zero
// months. The partition is a pure function of (counts, n), so every
// process run plans identical shards.
func PartitionWindows(counts []int, n int) []Window {
	months := len(counts)
	if months == 0 || n <= 0 {
		return nil
	}
	if n > months {
		n = months
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	wins := make([]Window, 0, n)
	lo, acc := 0, 0
	for m := 0; m < months; m++ {
		acc += counts[m]
		// Remaining windows must each get at least one month.
		remWindows := n - len(wins)
		remMonths := months - m - 1
		// Close the current window once its share of the total is met, or
		// when the leftover months would otherwise starve later windows
		// (not closing now needs remMonths >= remWindows: one more month
		// for the current window plus one per window still to open).
		target := (total*(len(wins)+1) + n - 1) / n
		if (acc >= target && remWindows > 1) || remMonths < remWindows {
			wins = append(wins, Window{Lo: lo, Hi: m + 1})
			lo = m + 1
		}
	}
	if lo < months {
		wins = append(wins, Window{Lo: lo, Hi: months})
	}
	return wins
}

// MonthPulseCounts returns the number of generated pulses per month,
// indexed 0..Months-1. It is the balance input for PartitionWindows.
func (w *World) MonthPulseCounts() []int {
	counts := make([]int, w.cfg.Months)
	for _, p := range w.pulses {
		if p.Month >= 0 && p.Month < len(counts) {
			counts[p.Month]++
		}
	}
	return counts
}

// PartitionPulses plans n balanced month windows over this world and
// returns, per window, the pulses falling inside it (sub-slices of the
// world's creation-order feed when contiguous; freshly filtered
// otherwise). Windows with zero pulses are kept so shard indexes line up
// with the plan.
func (w *World) PartitionPulses(n int) ([]Window, [][]Pulse) {
	wins := PartitionWindows(w.MonthPulseCounts(), n)
	out := make([][]Pulse, len(wins))
	for i, win := range wins {
		out[i] = w.PulsesInMonths(win.Lo, win.Hi)
	}
	return wins, out
}
