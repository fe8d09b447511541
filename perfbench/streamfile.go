package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cacqr"
	"cacqr/internal/plan"
	"cacqr/internal/stream"
)

// stream-file factors a matrix file into a Q file. The panel kernels
// (4096×64) are the ones the full-size 131072-row run issues; the row
// count is cut so that one run holds enough operations for a tail
// percentile within the run time.
const (
	streamM, streamN, streamPanel = 32768, 64, 4096
)

func runStreamFile(cfg config) (*outcome, error) {
	model, err := cacqr.ModelStreamTSQR(streamM, streamN, streamPanel, true)
	if err != nil {
		return nil, err
	}
	aPath := filepath.Join(cfg.scratch, "stream-a.mat")
	qPath := filepath.Join(cfg.scratch, "stream-q.mat")
	return runClosed(cfg, closedWorkload{
		m: streamM, n: streamN,
		describe: fmt.Sprintf("FactorizeStreaming %dx%d Gaussian (κ from EstimateCondition), %d-row panels, file source → file sink (%.1f MB each)",
			streamM, streamN, streamPanel, float64(8*streamM*streamN)/1e6),
		model:   model,
		kernels: kernelShapes{rows: streamPanel, cols: streamN, hqrRows: 2 * streamN},
		setup: func(cfg config) (*closedEnv, error) {
			a := cacqr.RandomMatrix(streamM, streamN, cfg.seed)
			kappa := cacqr.EstimateCondition(a)
			if err := cacqr.WriteMatrixFile(aPath, cacqr.SourceFromDense(a), streamPanel); err != nil {
				return nil, err
			}
			return &closedEnv{
				op: func() (*opOut, error) {
					src, err := cacqr.SourceFromFile(aPath)
					if err != nil {
						return nil, err
					}
					defer src.Close()
					res, err := cacqr.FactorizeStreaming(src, cacqr.SinkToFile(qPath), cacqr.Options{PanelRows: streamPanel})
					if err != nil {
						return nil, err
					}
					return &opOut{r: res.R, stats: res.Stats, stream: res.Stream}, nil
				},
				check: func(o *opOut) factorCheck {
					q, err := readMatrixFile(qPath)
					if err != nil {
						return factorCheck{fails: []string{"q-readback"}}
					}
					return checkFactors(a, q, o.r, plan.StreamTSQR, streamPanel, kappa)
				},
				close: func() {
					os.Remove(aPath)
					os.Remove(qPath)
				},
			}, nil
		},
	})
}

// readMatrixFile reads a whole matrix file written by a file sink.
func readMatrixFile(path string) (*cacqr.Dense, error) {
	f, err := stream.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, n := f.Dims()
	out := cacqr.NewDense(m, n)
	row := 0
	for {
		p, err := f.Next(streamPanel)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < p.Rows; i++ {
			copy(out.Data[(row+i)*n:(row+i+1)*n], p.Data[i*p.Stride:i*p.Stride+n])
		}
		row += p.Rows
	}
	if row != m {
		return nil, fmt.Errorf("%s: read %d of %d rows", path, row, m)
	}
	return out, nil
}
