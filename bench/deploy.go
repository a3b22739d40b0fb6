package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"snoopy"
)

// serverProgram is the identity snoopy-server attests to.
const serverProgram = "snoopy-suboram-v1"

// env is where one bench process keeps its files and children: everything
// lives under bench/out/ of the checkout and is gone when the process ends.
type env struct {
	root    string // the checkout (holds BENCHMARK.json)
	out     string // bench/out: trace files, the built server
	work    string // bench/out/work-<pid>: journals, partition data
	server  string // built snoopy-server, "" until buildServer
	mu      sync.Mutex
	kids    map[*exec.Cmd]bool
	nextDir int
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		if filepath.Dir(dir) == dir {
			return "", fmt.Errorf("no BENCHMARK.json in or above the working directory")
		}
		dir = filepath.Dir(dir)
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	e := &env{root: root, out: out, work: filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid())), kids: map[*exec.Cmd]bool{}}
	return e, os.MkdirAll(e.work, 0o755)
}

// cleanup kills and reaps every child still running and removes the work
// directory. Safe to call more than once and from the signal handler.
func (e *env) cleanup() {
	e.mu.Lock()
	kids := e.kids
	e.kids = map[*exec.Cmd]bool{}
	e.mu.Unlock()
	for c := range kids {
		c.Process.Kill()
		c.Wait()
	}
	os.RemoveAll(e.work)
}

func (e *env) tempDir() (string, error) {
	e.mu.Lock()
	e.nextDir++
	dir := filepath.Join(e.work, strconv.Itoa(e.nextDir))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// buildServer builds snoopy-server from the checkout's source. Its time is
// excluded from setup_s: it is the toolchain's, not the system's.
func (e *env) buildServer() error {
	if e.server != "" {
		return nil
	}
	bin := filepath.Join(e.out, "bin", "snoopy-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/snoopy-server")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build snoopy-server: %v\n%s", err, out)
	}
	e.server = bin
	return nil
}

// startServer starts one snoopy-server child on an OS-chosen loopback port
// and returns once it is serving.
func (e *env) startServer(platformHex, dataDir string) (*exec.Cmd, string, error) {
	args := []string{"-listen", "127.0.0.1:0", "-block", strconv.Itoa(blockSize), "-platform", platformHex}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	cmd := exec.Command(e.server, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	e.mu.Lock()
	err = cmd.Start()
	if err == nil {
		e.kids[cmd] = true
	}
	e.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "subORAM serving on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			go io.Copy(io.Discard, stdout) // the child must never block on its stdout
			return cmd, addr, nil
		}
	}
	e.stop(cmd)
	return nil, "", fmt.Errorf("snoopy-server exited before serving")
}

// spinFlag makes the program the idle spinner: the one mode no user asks for.
const spinFlag = "-idle-spin"

// startSpinner starts a copy of this program that only spins, in the
// kernel's idle scheduling class: it runs when nothing else on its CPU can
// and is preempted the moment anything else wakes. A run confined to one CPU
// keeps one beside it, so that the CPU never halts while the workload waits
// for the disk or a peer. On the reference sandbox a vCPU that halts many
// times a second falls into a state some 1.6x slower and stays there for
// tens of seconds (README.md, "Load discipline"); remote_durable, with some
// 25 disk waits an epoch, spent half of a noisy hour in it without the
// spinner and an eighth with it. The same is done to a benchmark box with
// idle=poll. cleanup stops the spinner with the other children.
func (e *env) startSpinner() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, spinFlag)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	e.kids[cmd] = true
	return nil
}

// spin is the spinner's whole life. It ends when its parent does, however
// that one ended, and at once if it cannot lower its own priority: a spinner
// of normal priority would take half the workload's CPU.
func spin() {
	runtime.LockOSThread() // the scheduling class is this thread's
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			os.Exit(1)
		}
	}
	for parent := os.Getppid(); os.Getppid() == parent; {
		for t := time.Now(); time.Since(t) < 10*time.Millisecond; {
		}
	}
}

// stop kills one child, reaps it and returns its peak RSS in MiB as read
// just before the kill.
func (e *env) stop(cmd *exec.Cmd) float64 {
	e.mu.Lock()
	running := e.kids[cmd]
	delete(e.kids, cmd)
	e.mu.Unlock()
	if !running {
		return 0
	}
	rss := peakRSSMiB(cmd.Process.Pid)
	cmd.Process.Kill()
	cmd.Wait()
	return rss
}

// peakRSSMiB reads VmHWM of a process from /proc (Linux only; 0 elsewhere).
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	return kb / 1024
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// deployment is one opened store with whatever it owns.
type deployment struct {
	env      *env
	st       *snoopy.Store
	timed    []*timedSub // traced deployments: the partition decorators
	clients  []snoopy.SubORAM
	children []*exec.Cmd
	journal  string   // root journal directory, "" if none
	dataDirs []string // the children's -data directories
	dir      string
	closed   bool
}

type deployOpts struct {
	tr      *tracer // non-nil: wrap every partition in a timing decorator
	durable bool    // remote only: children run with -data, the root journals
}

// deploy opens the workload's deployment through the public plain path:
// Open for in-process partitions, OpenWithSubORAMs over dialed snoopy-server
// children (or, traced, over decorated partitions).
func deploy(e *env, sp spec, o deployOpts) (d *deployment, err error) {
	d = &deployment{env: e}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := snoopy.Config{BlockSize: blockSize, LoadBalancers: 1, SubORAMs: sp.subORAMs, Epoch: sp.epoch}
	switch {
	case sp.remote:
		if d.dir, err = e.tempDir(); err != nil {
			return d, err
		}
		var key [32]byte
		if _, err = rand.Read(key[:]); err != nil {
			return d, err
		}
		platform := platformFromKey(key)
		for s := 0; s < sp.subORAMs; s++ {
			data := ""
			if o.durable {
				data = filepath.Join(d.dir, fmt.Sprintf("part-%d", s))
				d.dataDirs = append(d.dataDirs, data)
			}
			cmd, addr, err := e.startServer(hex.EncodeToString(key[:]), data)
			if err != nil {
				return d, err
			}
			d.children = append(d.children, cmd)
			c, err := snoopy.DialSubORAM(addr, platform, snoopy.Measure(serverProgram))
			if err != nil {
				return d, fmt.Errorf("dial %s: %w", addr, err)
			}
			d.clients = append(d.clients, c)
		}
		if o.durable {
			d.journal = filepath.Join(d.dir, "journal")
			cfg.JournalDir = d.journal
		}
	case o.tr != nil:
		for s := 0; s < sp.subORAMs; s++ {
			d.clients = append(d.clients, snoopy.NewLocalSubORAM(blockSize, 0, false))
		}
	default:
		d.st, err = snoopy.Open(cfg)
		return d, err
	}
	subs := d.clients
	if o.tr != nil {
		subs = nil
		for _, c := range d.clients {
			t := newTimedSub(c, o.tr)
			d.timed = append(d.timed, t)
			subs = append(subs, t.client())
		}
	}
	d.st, err = snoopy.OpenWithSubORAMs(cfg, subs)
	return d, err
}

// close stops the store, the connections and the children, and returns the
// children's summed peak RSS.
func (d *deployment) close() (childRSSMiB float64) {
	if d.closed {
		return 0
	}
	d.closed = true
	if d.st != nil {
		d.st.Close()
	}
	for _, c := range d.clients {
		if cl, ok := c.(io.Closer); ok {
			cl.Close()
		}
	}
	for _, cmd := range d.children {
		childRSSMiB += d.env.stop(cmd)
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	return childRSSMiB
}

// setUp is the timed set-up: open (children included), load, warm up.
func setUp(e *env, sp spec, o deployOpts, r *runner, ids []uint64, data []byte) (*deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy(e, sp, o)
	if err != nil {
		return nil, 0, err
	}
	if err := d.st.LoadSlices(ids, data); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	r.warmup(d.st)
	return d, time.Since(t0), nil
}
