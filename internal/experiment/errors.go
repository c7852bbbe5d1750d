package experiment

import (
	"context"
	"errors"
	"fmt"

	"aspp/internal/bgp"
)

// ErrBaselineFailed marks a *fatal* sweep error: a victim's no-attack
// baseline propagation failed. Unlike an unreachable attacker — a property
// of one drawn pair, redrawn and counted as skipped — a baseline failure
// is a property of the victim and repeats identically for every pair
// sharing that victim, so redrawing can only shrink the sample silently. Drivers abort the sweep instead.
// Match with errors.Is.
var ErrBaselineFailed = errors.New("experiment: baseline propagation failed")

// baselineError wraps a per-victim baseline failure with the fatal
// sentinel and the (victim, λ) key that failed.
func baselineError(victim bgp.ASN, lambda int, err error) error {
	return fmt.Errorf("%w for victim %v (λ=%d): %v", ErrBaselineFailed, victim, lambda, err)
}

// sweepError wraps a fan-out error for the caller: cancellation keeps the
// driver's historical "cancelled" phrasing, every other error is a fatal
// sweep failure.
func sweepError(what string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("experiment: %s cancelled: %w", what, err)
	}
	return fmt.Errorf("experiment: %s: %w", what, err)
}
