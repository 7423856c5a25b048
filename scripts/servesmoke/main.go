// servesmoke drives a RUNNING noelle-serve daemon (-addr) through the
// full service surface: a cold populate, a concurrent burst of identical
// requests that must coalesce, a warm re-run that must render
// byte-identically to the cold one, concurrent mixed traffic on a second
// module, and a stats probe asserting warm-hit and coalesce counters
// moved. It writes the module and the canonical report rendering under
// -out-dir so scripts/serve_smoke.sh can diff them against a cold
// noelle-load run, then asks the daemon to shut down. Given the daemon's
// -daemon-pid, it stops waiting for the daemon to come up as soon as that
// process has exited, and prints -daemon-log.
//
// Usage: go run ./scripts/servesmoke -addr unix:PATH|tcp:HOST:PORT [-out-dir DIR]
//
//	[-daemon-pid PID] [-daemon-log FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/serve"
)

// fixtureHead opens the smoke program: enough loops and calls that the
// licm,dead pipeline has real work to report. The %d seed varies the
// structure so the two modules the smoke sends are distinct.
const fixtureHead = `
int table[256];
int st[2];
int scale = %d;

int prvg_next(int *s) {
  s[0] = (s[0] * 1103515245 + 12345) %% 2147483647;
  if (s[0] < 0) { s[0] = 0 - s[0]; }
  return s[0];
}
int never_called(int x) { return x * 2; }
`

// fixtureStage is repeated kernelCount times (indexed %[1]d): a loop
// nest with a hoistable invariant, array traffic and a call.
const fixtureStage = `
int stage%[1]d(int n) {
  int i;
  int j;
  int acc = %[1]d;
  for (i = 0; i < n; i = i + 1) {
    int k = scale * 7 + %[1]d;
    for (j = 0; j < 8; j = j + 1) {
      table[(i + j + %[1]d) %% 256] = k + table[(i + j) %% 256] + prvg_next(&st[0]) %% 3;
      acc = acc + table[(i + j) %% 256];
    }
    acc = acc + k * j - i;
  }
  return acc;
}
`

const kernelCount = 2

func moduleText(seed int) (string, error) {
	var src strings.Builder
	fmt.Fprintf(&src, fixtureHead, seed)
	for i := 0; i < kernelCount; i++ {
		fmt.Fprintf(&src, fixtureStage, i+1)
	}
	src.WriteString("int main() {\n  st[0] = 7;\n  int acc = 0;\n")
	for i := 0; i < kernelCount; i++ {
		fmt.Fprintf(&src, "  acc = acc + stage%d(40);\n", i+1)
	}
	src.WriteString("  print_i64(acc % 1000);\n  return acc % 256;\n}\n")

	m, err := minic.Compile("servesmoke", src.String())
	if err != nil {
		return "", err
	}
	passes.Optimize(m)
	return ir.Print(m), nil
}

func main() {
	addr := flag.String("addr", "", "daemon address (unix:PATH or tcp:HOST:PORT)")
	outDir := flag.String("out-dir", ".", "directory for the module and report artifacts")
	daemonPid := flag.Int("daemon-pid", 0, "the daemon's process id: stop waiting for it once it has exited")
	daemonLog := flag.String("daemon-log", "", "the daemon's log, printed when it never comes up")
	flag.Parse()
	if err := smoke(*addr, *outDir, *daemonPid, *daemonLog); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		os.Exit(1)
	}
}

// renderRun executes one request, rendering reports and the verifier
// footer exactly as noelle-load prints them to stderr.
func renderRun(cl *serve.Client, req *serve.RunRequest) (string, *serve.Done, error) {
	var b strings.Builder
	done, err := cl.Run(req, func(msg serve.ReportMsg) { msg.ToReport().Fprint(&b) })
	if err != nil {
		return "", nil, err
	}
	if done.Status != serve.StatusOK {
		return "", nil, fmt.Errorf("run status %q: %s", done.Status, done.Error)
	}
	if done.VerifierStats != "" {
		fmt.Fprintln(&b, done.VerifierStats)
	}
	return b.String(), done, nil
}

func smoke(addr, outDir string, daemonPid int, daemonLog string) error {
	if addr == "" {
		return fmt.Errorf("-addr is required")
	}
	modA, err := moduleText(3)
	if err != nil {
		return err
	}
	modB, err := moduleText(41)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "smoke_module.nir"), []byte(modA), 0o644); err != nil {
		return err
	}

	// The daemon may still be binding its socket, or may have died.
	var cl *serve.Client
	for i := 0; ; i++ {
		if cl, err = serve.Dial(addr); err == nil {
			break
		}
		exited := daemonPid > 0 && syscall.Kill(daemonPid, 0) != nil
		if i > 100 || exited {
			log, _ := os.ReadFile(daemonLog)
			return fmt.Errorf("daemon never came up at %s (exited: %v): %w\ndaemon log:\n%s", addr, exited, err, log)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return err
	}

	reqA := &serve.RunRequest{Module: modA, Tools: []string{"licm", "dead"}, Opts: serve.DefaultRunOptions()}

	// Phase 1: cold populate. This rendering is the byte-diff reference
	// against a cold `noelle-load -tools licm,dead`.
	coldOut, d, err := renderRun(cl, reqA)
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	if d.SessionHit {
		return fmt.Errorf("first request claimed a session hit")
	}
	if err := os.WriteFile(filepath.Join(outDir, "smoke_report.txt"), []byte(coldOut), 0o644); err != nil {
		return err
	}

	// Phase 2: concurrent mixed traffic — a burst of identical requests
	// (must coalesce: any two overlapping identical requests share one
	// execution) interleaved with a different module's pipeline.
	coalesced, err := coalesceBurst(addr, reqA, modB)
	if err != nil {
		return err
	}

	// Phase 3: warm re-run on the original connection must hit the
	// resident session and render byte-identically.
	warmOut, d, err := renderRun(cl, reqA)
	if err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	if !d.SessionHit {
		return fmt.Errorf("warm re-run missed the session")
	}
	if warmOut != coldOut {
		return fmt.Errorf("warm reports differ from cold:\n--- cold ---\n%s--- warm ---\n%s", coldOut, warmOut)
	}

	st, err := cl.Stats()
	if err != nil {
		return err
	}
	hits := st.Counter("serve.session.hits")
	if hits == 0 {
		return fmt.Errorf("stats: no session hits after warm traffic\n%s", st.Metrics)
	}
	if coalesced == 0 || st.Counter("serve.coalesced") == 0 {
		return fmt.Errorf("stats: no coalesced requests after identical burst\n%s", st.Metrics)
	}
	fmt.Fprintf(os.Stderr, "smoke: session hits=%d coalesced=%d sessions=%d stores=%d\n",
		hits, st.Counter("serve.coalesced"), st.Sessions, len(st.Stores))

	if err := cl.Shutdown(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "smoke: shutdown acknowledged")
	return nil
}

// coalesceBurst fires bursts of identical concurrent requests (plus one
// mixed-module request) until at least one response reports Coalesced.
// Identical overlapping requests always coalesce, so one burst nearly
// always suffices; the retry bounds scheduler bad luck.
func coalesceBurst(addr string, req *serve.RunRequest, otherModule string) (int, error) {
	const clients = 8
	for attempt := 0; attempt < 5; attempt++ {
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			coalesced int
		)
		errs := make(chan error, clients+1)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := serve.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				done, err := cl.Run(req, nil)
				if err != nil {
					errs <- err
					return
				}
				if done.Status != serve.StatusOK {
					errs <- fmt.Errorf("burst status %q: %s", done.Status, done.Error)
					return
				}
				if done.Coalesced {
					mu.Lock()
					coalesced++
					mu.Unlock()
				}
			}()
		}
		wg.Add(1)
		go func() { // the mixed-traffic lane
			defer wg.Done()
			cl, err := serve.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			other := &serve.RunRequest{Module: otherModule, Tools: []string{"perspective"}, Opts: serve.DefaultRunOptions()}
			if done, err := cl.Run(other, nil); err != nil {
				errs <- err
			} else if done.Status != serve.StatusOK {
				errs <- fmt.Errorf("mixed run status %q: %s", done.Status, done.Error)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, err
			}
		}
		if coalesced > 0 {
			return coalesced, nil
		}
	}
	return 0, nil
}
