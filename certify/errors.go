package certify

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Sentinel errors of the public API. Every error the package returns matches
// exactly one of these under errors.Is, so callers branch on failure class
// instead of parsing messages; the concrete values additionally wrap the
// underlying cause (errors.As / errors.Is keep working through the chain).
var (
	// ErrUnknownProperty reports a property name the catalog cannot resolve.
	ErrUnknownProperty = errors.New("certify: unknown property")
	// ErrTooWide reports a graph the scheme cannot certify within the lane
	// budget (its lane partition — and hence pathwidth bound — is too large).
	ErrTooWide = errors.New("certify: graph exceeds the lane budget")
	// ErrDisconnected reports a graph the scheme cannot certify because it
	// is empty or disconnected: the paper's scheme is defined on connected
	// graphs only.
	ErrDisconnected = errors.New("certify: graph is empty or disconnected")
	// ErrPropertyFails reports a configuration that does not satisfy the
	// property: there is nothing to certify (completeness only speaks about
	// yes-instances), which is not a proving malfunction.
	ErrPropertyFails = errors.New("certify: property does not hold on this graph")
	// ErrVerifyFailed reports a certificate some vertex rejected. The
	// concrete error is a *VerifyError carrying the rejecting vertices.
	ErrVerifyFailed = errors.New("certify: certificate rejected")
	// ErrBadCertificate reports a certificate blob that fails strict
	// decoding: bad magic, unsupported version, truncation, CRC mismatch,
	// non-canonical label bytes, or trailing garbage.
	ErrBadCertificate = errors.New("certify: malformed certificate")
	// ErrWrongGraph reports a certificate presented against a configuration
	// other than the one it was issued for (fingerprint mismatch).
	ErrWrongGraph = errors.New("certify: certificate was issued for a different configuration")
	// ErrBadEdit reports an invalid incremental edit batch: an endpoint out
	// of range, a self-loop, adding a present edge, removing an absent one,
	// or a batch that disconnects the graph. The Updater rolls back — a
	// failed batch leaves the previous generation fully intact.
	ErrBadEdit = errors.New("certify: invalid edit")
	// ErrBadConfig reports caller misuse of the facade itself: an invalid
	// option value, a nil graph or certificate, a duplicate or missing
	// property configuration, a malformed edge list, or an unknown fault
	// name. These are programming errors on the caller's side, never a
	// statement about the graph or the certificate contents. (Added with
	// the certlint errtaxonomy analyzer, which machine-checks that every
	// error escaping the facade wraps a typed sentinel.)
	ErrBadConfig = errors.New("certify: invalid configuration")
	// ErrBadFormula reports an MSO₂ formula that does not compile to an
	// algebra: a syntax error (the cause is a *mso.ParseError with the
	// position), an unbound variable or sort mismatch (*msoc.CompileError
	// naming the subformula), or a class-space blow-up during enumeration.
	ErrBadFormula = errors.New("certify: formula does not compile")
)

// wrapped attaches a sentinel to an underlying cause: errors.Is matches the
// sentinel, and Unwrap exposes the cause's own chain (e.g. an ErrTooWide
// still satisfies errors.Is(err, interval.ErrTooLarge) when the exact
// pathwidth search overflowed).
type wrapped struct {
	sentinel error
	cause    error
}

func (e *wrapped) Error() string {
	return fmt.Sprintf("%v: %v", e.sentinel, e.cause)
}

func (e *wrapped) Is(target error) bool { return target == e.sentinel }

func (e *wrapped) Unwrap() error { return e.cause }

func wrapErr(sentinel, cause error) error {
	return &wrapped{sentinel: sentinel, cause: cause}
}

// VerifyError is the concrete rejection error: errors.Is(err, ErrVerifyFailed)
// holds, and the error names the rejecting property and vertices.
type VerifyError struct {
	// Property is the rejected property's catalog name.
	Property string
	// Rejected lists the rejecting vertices in ascending order. It is empty
	// when the certificate was rejected before any vertex ran (its labels do
	// not determine a consistent class table).
	Rejected []int
}

func (e *VerifyError) Error() string {
	if len(e.Rejected) == 0 {
		return fmt.Sprintf("certify: certificate rejected (%s): inconsistent class table", e.Property)
	}
	show := e.Rejected
	const maxShown = 8
	suffix := ""
	if len(show) > maxShown {
		suffix = fmt.Sprintf(" … (%d total)", len(show))
		show = show[:maxShown]
	}
	parts := make([]string, len(show))
	for i, v := range show {
		parts[i] = fmt.Sprint(v)
	}
	return fmt.Sprintf("certify: certificate rejected (%s) at vertices [%s]%s",
		e.Property, strings.Join(parts, " "), suffix)
}

// Is reports ErrVerifyFailed as this error's failure class.
func (e *VerifyError) Is(target error) bool { return target == ErrVerifyFailed }

func newVerifyError(property string, rejected []int) *VerifyError {
	sort.Ints(rejected)
	return &VerifyError{Property: property, Rejected: rejected}
}
