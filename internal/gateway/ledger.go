package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LedgerEntry is one append-only billing record: a fee delta observed
// on one tenant session. The ledger is the durable side of usage-fee
// metering — per-tenant sums over its entries reconcile exactly with
// the in-memory Meter.FeeCents.
type LedgerEntry struct {
	When    time.Time
	Tenant  string
	Session string
	Cents   float64
}

// Ledger is an append-only billing log. With a path it persists one
// line per entry (O_APPEND, so restarts extend rather than truncate);
// with an empty path it keeps the running sums in memory only.
type Ledger struct {
	mu     sync.Mutex
	f      *os.File
	closed bool   // a file-backed ledger after Close
	line   []byte // scratch for one persisted line
	sums   map[string]float64
	n      int64
}

// errLedgerClosed is Append's answer once a file-backed ledger is
// closed: the entry could not be persisted, so it is not counted either.
var errLedgerClosed = errors.New("gateway: ledger append: ledger closed")

// OpenLedger opens (creating if needed) the billing ledger at path;
// an empty path yields an in-memory ledger.
func OpenLedger(path string) (*Ledger, error) {
	l := &Ledger{sums: make(map[string]float64)}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("gateway: open ledger: %w", err)
	}
	l.f = f
	return l, nil
}

// Append records one fee delta. A persisted line reads
// "when\ttenant\tsession\tcents\n": the UTC time in RFC 3339 with
// nanoseconds, the amount with six decimals.
func (l *Ledger) Append(when time.Time, tenant, session string, cents float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLedgerClosed
	}
	l.sums[tenant] += cents
	l.n++
	if l.f == nil {
		return nil
	}
	b := when.UTC().AppendFormat(l.line[:0], time.RFC3339Nano)
	b = append(append(append(b, '\t'), tenant...), '\t')
	b = append(append(b, session...), '\t')
	b = append(strconv.AppendFloat(b, cents, 'f', 6, 64), '\n')
	l.line = b
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("gateway: ledger append: %w", err)
	}
	return nil
}

// Sum returns the ledger's running total for one tenant, in cents.
// Used only by tests: TestMetricsLedgerReconcile, TestSidecarEndpoints.
func (l *Ledger) Sum(tenant string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[tenant]
}

// Entries returns the number of records appended this process.
func (l *Ledger) Entries() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Close flushes and closes the backing file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.closed = true
	return err
}

// ReadLedger parses a persisted ledger file back into entries —
// loadgen and the reconciliation tests use it to audit the billing
// trail against each tenant's meter.
func ReadLedger(path string) ([]LedgerEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []LedgerEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("gateway: ledger %s: malformed line %q", path, line)
		}
		when, err := time.Parse(time.RFC3339Nano, parts[0])
		if err != nil {
			return nil, fmt.Errorf("gateway: ledger %s: bad timestamp %q: %w", path, parts[0], err)
		}
		cents, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return nil, fmt.Errorf("gateway: ledger %s: bad amount %q: %w", path, parts[3], err)
		}
		out = append(out, LedgerEntry{When: when, Tenant: parts[1], Session: parts[2], Cents: cents})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
