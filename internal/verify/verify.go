// Package verify is NOELLE's tiered static verifier: the platform-side
// oracle that validates the IR custom tools consume and produce before a
// single instruction executes. The runtime byte-comparison oracle
// (original vs -seq vs parallel) stays the ground truth, but it only
// speaks after a full execution; the static tiers speak in microseconds
// and name the broken invariant, which is what a fuzzing campaign needs
// as its first-line check.
//
// Three cumulative tiers:
//
//   - quick: ir.Verify — structural well-formedness plus the true
//     dominance-based SSA check (def dominates use, phi operands dominate
//     their incoming edges, unreachable blocks handled).
//   - ssa: quick + extern contracts (declared signatures and call sites
//     checked against the interpreter's registered extern arities) +
//     unreachable-block reporting.
//   - comm: ssa + the communication-protocol linter over lowered parallel
//     plans (SPSC queue discipline, per-iteration push/pop balance, close
//     protocol, HELIX wait/fire ticket chains, token-queue coverage of
//     cross-stage memory dependences). See comm.go.
//
// Tiers are staged: a tier only runs when every tier below it is clean,
// so a comm diagnostic is always about a structurally valid module.
package verify

import (
	"fmt"
	"strings"

	"noelle/internal/ir"
)

// Tier selects how deep verification goes.
type Tier int

// The verification tiers, in increasing strictness.
const (
	TierQuick Tier = iota
	TierSSA
	TierComm
)

// String renders the tier's flag spelling.
func (t Tier) String() string {
	switch t {
	case TierQuick:
		return "quick"
	case TierSSA:
		return "ssa"
	case TierComm:
		return "comm"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier parses a -verify flag value. The empty string selects the
// quick tier (the historical default).
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "quick":
		return TierQuick, nil
	case "ssa":
		return TierSSA, nil
	case "comm":
		return TierComm, nil
	}
	return TierQuick, fmt.Errorf("verify: unknown tier %q (have quick, ssa, comm)", s)
}

// Finding is one named invariant violation.
type Finding struct {
	// Tier is the tier that detected the violation.
	Tier Tier
	// Fn is the function the finding is anchored to ("" for module-level
	// findings).
	Fn string
	// Detail names the broken invariant.
	Detail string
}

// String renders the finding as "[tier] @fn: detail".
func (f Finding) String() string {
	if f.Fn == "" {
		return fmt.Sprintf("[%s] %s", f.Tier, f.Detail)
	}
	return fmt.Sprintf("[%s] @%s: %s", f.Tier, f.Fn, f.Detail)
}

// Result is the outcome of one verification run.
type Result struct {
	// Tier is the deepest tier requested.
	Tier Tier
	// Checked counts the defined functions examined.
	Checked int
	// Findings lists every violation, in tier order.
	Findings []Finding
}

// CountAt returns the number of findings detected by tier t.
func (r *Result) CountAt(t Tier) int {
	n := 0
	for _, f := range r.Findings {
		if f.Tier == t {
			n++
		}
	}
	return n
}

// Err returns the findings as an *Error, or nil when the module is clean.
func (r *Result) Err() error {
	if len(r.Findings) == 0 {
		return nil
	}
	return &Error{Tier: r.Tier, Findings: r.Findings}
}

// Error aggregates the findings of a failed verification. noelle-load
// maps it to its own exit code so campaign harnesses can distinguish
// "the verifier rejected the module" from ordinary tool failures.
type Error struct {
	Tier     Tier
	Findings []Finding
}

// Error joins the findings into one message.
func (e *Error) Error() string {
	lines := make([]string, len(e.Findings))
	for i, f := range e.Findings {
		lines[i] = f.String()
	}
	return fmt.Sprintf("static verification failed at tier %s (%d findings):\n  %s",
		e.Tier, len(e.Findings), strings.Join(lines, "\n  "))
}

// Module verifies m up to (and including) tier. Tiers are staged: a
// deeper tier only runs when every shallower tier found nothing, so its
// diagnostics never chase structural corruption.
func Module(m *ir.Module, tier Tier) *Result {
	res := &Result{Tier: tier}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			res.Checked++
		}
	}

	// Tier quick: structural + dominance-based SSA (ir.Verify).
	if err := ir.Verify(m); err != nil {
		ve, ok := err.(*ir.VerifyError)
		if !ok {
			res.Findings = append(res.Findings, Finding{Tier: TierQuick, Detail: err.Error()})
			return res
		}
		for _, p := range ve.Problems {
			res.Findings = append(res.Findings, Finding{Tier: TierQuick, Detail: p})
		}
		return res
	}
	if tier < TierSSA {
		return res
	}

	// Tier ssa: extern contracts + unreachable-block reporting.
	res.Findings = append(res.Findings, checkSSA(m)...)
	if len(res.Findings) > 0 || tier < TierComm {
		return res
	}

	// Tier comm: the communication-protocol linter.
	res.Findings = append(res.Findings, lintComm(m)...)
	return res
}
