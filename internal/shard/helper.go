package shard

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"strings"

	"spatialjoin/internal/joinerr"
)

// helperEnv marks a test binary re-exec as a shard worker. The Go
// helper-process pattern: a test declares
//
//	func TestShardWorkerHelper(t *testing.T) { shard.RunHelperWorker() }
//
// and spawns workers with HelperWorkerCmd("TestShardWorkerHelper"); the
// re-executed test binary runs only that test, which turns into
// WorkerMain. Without the environment marker the function is a no-op,
// so the helper test passes vacuously in normal runs.
//
// helperListenEnv is the resident-worker variant: its value is a TCP
// listen address (usually "127.0.0.1:0"); the re-exec prints the bound
// address as a "listening <addr>" line and serves job conversations
// until killed.
const (
	helperEnv       = "SPATIALJOIN_SHARD_WORKER"
	helperListenEnv = "SPATIALJOIN_SHARD_LISTEN"
)

// RunHelperWorker turns the current process into a shard worker if one
// of the helper environment markers is set; otherwise it returns
// immediately. When it does run, it never returns: the process exits
// with the worker's status (pipe mode) or serves the listener until
// killed (listen mode).
func RunHelperWorker() {
	if addr := os.Getenv(helperListenEnv); addr != "" {
		if err := ListenAndServe(addr, os.Stdout); err != nil {
			os.Stderr.WriteString("shard listen helper: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv(helperEnv) != "1" {
		return
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(0)
}

// HelperWorkerCmd builds the WorkerCmd/WorkerEnv pair that re-executes
// the current test binary as a shard worker through the named helper
// test.
func HelperWorkerCmd(testName string) (cmd, env []string) {
	return []string{os.Args[0], "-test.run=^" + testName + "$"},
		[]string{helperEnv + "=1"}
}

// HelperListenCmd builds the argv/env pair that re-executes the current
// test binary as a resident TCP worker (on a kernel-chosen port)
// through the named helper test; pass both to SpawnResidentWorker.
func HelperListenCmd(testName string) (cmd, env []string) {
	return []string{os.Args[0], "-test.run=^" + testName + "$"},
		[]string{helperListenEnv + "=127.0.0.1:0"}
}

// SpawnResidentWorker starts argv as a resident worker daemon, waits
// for its "listening <addr>" announcement on stdout, and returns the
// address with a stop function that kills and reaps the process. env
// appends to the inherited environment. This is how benches and tests
// stand up a real out-of-process worker fleet; production fleets run
// sjworkerd directly.
func SpawnResidentWorker(argv, env []string) (addr string, stop func(), err error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	if err := cmd.Start(); err != nil {
		return "", nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "listening "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return "", nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard,
			errors.New("resident worker exited without announcing a listen address"))
	}
	// Keep draining stdout so the child can never block on a full pipe;
	// the drain ends when stop() kills the child and the pipe hits EOF.
	go func() {
		for sc.Scan() {
		}
	}()
	stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	return addr, stop, nil
}
