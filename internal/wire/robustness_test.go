package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"xnf/internal/engine"
	"xnf/internal/workload"
)

func serverCode(t *testing.T, err error) ErrCode {
	t.Helper()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v (%T), want *ServerError", err, err)
	}
	return se.Code
}

// TestCursorLimitIsBusy: blowing the per-session cursor table must come
// back as CodeBusy — retryable, and actually retryable: closing a cursor
// frees the slot.
func TestCursorLimitIsBusy(t *testing.T) {
	srv, addr := testServer(t)
	srv.MaxCursorsPerSession = 1
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FetchSize = 2

	r1, err := c.QueryRows("SELECT ENO FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.QueryRows("SELECT DNO FROM DEPT")
	if code := serverCode(t, err); code != CodeBusy {
		t.Fatalf("second cursor: code %v, want CodeBusy", code)
	}
	if !IsRetryable(err) {
		t.Fatal("CodeBusy must classify as retryable")
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := c.QueryRows("SELECT DNO FROM DEPT")
	if err != nil {
		t.Fatalf("cursor after freeing the slot: %v", err)
	}
	r2.Close()
}

// TestSweptCursorIsNotFound: a cursor the idle sweeper reclaimed answers
// its next fetch with CodeNotFound — a clean protocol-level signal, not a
// hung connection.
func TestSweptCursorIsNotFound(t *testing.T) {
	_, addr := testServer(t, func(s *Server) { s.CursorIdleTimeout = 20 * time.Millisecond })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FetchSize = 2

	rows, err := c.QueryRows("SELECT ENO FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	var ferr error
	for {
		if _, ferr = rows.Next(); ferr != nil {
			break
		}
	}
	if code := serverCode(t, ferr); code != CodeNotFound {
		t.Fatalf("fetch on swept cursor: code %v, want CodeNotFound", code)
	}
	if IsRetryable(ferr) {
		t.Fatal("a swept cursor is gone; the error must not be retryable")
	}
}

// TestSetStatementTimeoutOverWire: the per-session SET override must cut a
// long statement off with CodeTimeout, and SET 0 must clear it again.
func TestSetStatementTimeoutOverWire(t *testing.T) {
	_, addr := testServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("SET STATEMENT_TIMEOUT 1"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("SELECT A.ENO FROM EMP A, EMP B, EMP C, EMP D ORDER BY A.ENO DESC")
	if code := serverCode(t, err); code != CodeTimeout {
		t.Fatalf("deadline miss: code %v, want CodeTimeout", code)
	}
	if IsRetryable(err) {
		t.Fatal("a timeout must not classify as blindly retryable")
	}
	if _, err := c.Exec("SET STATEMENT_TIMEOUT 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM EMP"); err != nil {
		t.Fatalf("query after clearing the override: %v", err)
	}
}

// TestBudgetExhaustionOverWire: a statement the process budget cannot
// admit surfaces as CodeResourceExhausted, and the session survives to
// run smaller statements.
func TestBudgetExhaustionOverWire(t *testing.T) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 8, EmpsPerDept: 8, ProjsPerDept: 2,
		Skills: 20, SkillsPerEmp: 2, SkillsPerProj: 1, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	// Too small for a whole-result ship (one wire block reserves ~96 KB)
	// but plenty for a small-fetch cursor afterwards.
	db.SetMemBudget(16 << 10)
	srv := NewServer(db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT A.ENO, B.ENAME FROM EMP A, EMP B ORDER BY B.ENAME, A.ENO")
	if code := serverCode(t, err); code != CodeResourceExhausted {
		t.Fatalf("over-budget statement: code %v, want CodeResourceExhausted", code)
	}
	if !IsRetryable(err) {
		t.Fatal("CodeResourceExhausted must classify as retryable")
	}
	// The session survives the shed: a cursor with a small fetch block
	// stays inside the budget and streams fine.
	c.FetchSize = 16
	rows, err := c.QueryRows("SELECT DNO FROM DEPT WHERE DNO = 1")
	if err != nil {
		t.Fatalf("small-fetch cursor after shed: %v", err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatalf("fetch after shed: %v", err)
	}
	rows.Close()
}

// TestRetryHelper pins the client backoff contract: retryable errors are
// absorbed up to the attempt limit, fatal errors return immediately.
func TestRetryHelper(t *testing.T) {
	calls := 0
	err := Retry(5, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return &ServerError{Code: CodeBusy, Msg: "limit"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retryable: err=%v calls=%d, want nil after 3", err, calls)
	}

	calls = 0
	fatal := &ServerError{Code: CodeInternal, Msg: "boom"}
	if err := Retry(5, time.Microsecond, func() error { calls++; return fatal }); !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("fatal: err=%v calls=%d, want the error after 1 call", err, calls)
	}

	calls = 0
	busy := &ServerError{Code: CodeResourceExhausted, Msg: "mem"}
	if err := Retry(3, time.Microsecond, func() error { calls++; return busy }); !errors.Is(err, busy) || calls != 3 {
		t.Fatalf("exhausted attempts: err=%v calls=%d, want the error after 3 calls", err, calls)
	}
}

// TestCloseBeforeServe checks that Close on a server whose Serve has not
// started yet is not lost: the later Serve closes its listener and returns
// net.ErrClosed instead of accepting forever.
func TestCloseBeforeServe(t *testing.T) {
	srv := NewServer(engine.Open())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve after Close returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		l.Close()
		t.Fatal("Serve after Close is still accepting")
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepts connections after Serve returned")
	}
}
