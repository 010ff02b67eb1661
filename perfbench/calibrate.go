package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// On a host shared with other virtual machines, the per-core speed can
// move by up to 2x over seconds to minutes, and every host-time figure
// moves with it. The end-to-end run therefore times a fixed calibration
// kernel between short slices of the workload, in a child process of its
// own so that the workload's heap and goroutines cannot change the
// kernel's time, and reports every time figure at the reference speed: the
// speed at which the kernel takes refKernelWall of wall time and
// refKernelCPU of CPU time. A slice's slowdown is the mean of the kernel's
// times just before and just after it, over the reference.
const (
	refKernelWall = 150 * time.Millisecond
	refKernelCPU  = 300 * time.Millisecond
)

// calibratorEnv, set in a child's environment, makes the benchmark binary
// serve calibration requests instead of running a workload.
const calibratorEnv = "PERFBENCH_CALIBRATOR"

// kernelItems is how many kernelWork items one calibration runs. The
// kernel's goroutines take items from a shared counter, as the harness's
// workers take systems, so a stalled CPU slows the kernel as it slows the
// workloads. It sizes the kernel to about refKernelWall.
const kernelItems = 48

// treeNode is one node of the kernel's allocation-heavy binary tree.
type treeNode struct{ l, r *treeNode }

func buildTree(depth int) *treeNode {
	if depth == 0 {
		return &treeNode{}
	}
	return &treeNode{buildTree(depth - 1), buildTree(depth - 1)}
}

func (n *treeNode) size() int {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.size() + n.r.size()
}

// kernelWork is one fixed slice of the calibration kernel: small-object
// allocation and pointer chasing, a sort, map updates and number
// formatting, the kinds of work the workloads do. It returns a checksum so
// that nothing is optimized away.
func kernelWork(seed uint64) int {
	sum := 0
	x := seed
	for rep := 0; rep < 4; rep++ {
		sum += buildTree(12).size()
		v := make([]int, 8192)
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			v[i] = int(x >> 33)
		}
		sort.Ints(v)
		m := make(map[int]int, 1024)
		for i, e := range v {
			m[e&4095] += i
		}
		sum += len(m) + v[100]
		for i := 0; i < 512; i++ {
			sum += len(strconv.Itoa(v[i]))
		}
	}
	return sum
}

// runKernel runs the calibration kernel once on GOMAXPROCS goroutines and
// returns its checksum.
func runKernel() int64 {
	var next, total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < kernelItems; k = next.Add(1) - 1 {
				total.Add(int64(kernelWork(uint64(k))))
			}
		}()
	}
	wg.Wait()
	return total.Load()
}

// serveCalibration is the child's side: for every request line it runs the
// kernel and answers with its wall and CPU nanoseconds and its checksum. It
// returns when its input ends.
func serveCalibration(r io.Reader, w io.Writer) int {
	in := bufio.NewScanner(r)
	for in.Scan() {
		w0, c0 := time.Now(), cpuTime()
		sum := runKernel()
		wall, cpu := time.Since(w0), cpuTime()-c0
		if _, err := fmt.Fprintf(w, "%d %d %d\n", wall.Nanoseconds(), cpu.Nanoseconds(), sum); err != nil {
			return 1
		}
	}
	return 0
}

// calibrator is the parent's handle on the calibration child.
type calibrator struct {
	cmd *osexec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
	// sum is the first kernel's checksum; every later one must equal it.
	sum int64
}

// speed is the host's slowdown against the reference speed, in wall and
// CPU time: 1 at the reference speed, 2 when the kernel took twice as long.
type speed struct{ wall, cpu float64 }

func (a speed) mean(b speed) speed { return speed{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2} }

// startCalibrator starts the calibration child from this binary.
func startCalibrator() (*calibrator, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	cmd := osexec.Command(bin)
	cmd.Env = append(os.Environ(), calibratorEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out), sum: -1}
	// The first kernel warms the child up and is not used.
	if _, err := c.measure(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// measure runs the kernel once in the child and returns the host's
// slowdown.
func (c *calibrator) measure() (speed, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return speed{}, fmt.Errorf("calibrator: %w", err)
	}
	if !c.out.Scan() {
		return speed{}, fmt.Errorf("calibrator: no answer (%v)", c.out.Err())
	}
	var wall, cpu, sum int64
	if _, err := fmt.Sscanf(c.out.Text(), "%d %d %d", &wall, &cpu, &sum); err != nil {
		return speed{}, fmt.Errorf("calibrator: answer %q: %w", c.out.Text(), err)
	}
	if c.sum < 0 {
		c.sum = sum
	} else if sum != c.sum {
		return speed{}, fmt.Errorf("calibrator: kernel checksum %d, want %d", sum, c.sum)
	}
	return speed{
		wall: float64(wall) / float64(refKernelWall.Nanoseconds()),
		cpu:  float64(cpu) / float64(refKernelCPU.Nanoseconds()),
	}, nil
}

// close ends the child and waits for it.
func (c *calibrator) close() {
	c.in.Close()
	_ = c.cmd.Wait() // its answers have all been read; a late failure changes nothing
}
