"""Command line driver.

Subcommands: simulate, estimate, filter, detect, bench; run them as
`kronstap ...` or `python -m kronstap.cli ...`. Exit status is
0 on success, 1 for usage problems, 2 for malformed or mismatched data,
and 3 when the estimator hit its iteration cap without converging.
This module opens and parses no file: formats reads the scene config,
the sweep file, the cubes and the estimates, and writes every output.
Every subcommand but bench takes its thread count from --threads,
falling back to the KRONSTAP_THREADS environment variable, and the
count never changes numerical output. It sizes the WorkerPool that
simulate opens to draw its blocks ahead of the writer, and that
estimate opens for the snapshot-path sweeps (fewer snapshots than
p*q); filter, detect and the dense estimate run on the calling thread.
bench takes no --threads: its pool widths are the sweep rows' threads
column.

The cube stages stream the cube in blocks of bins through
formats.PhaseHistoryReader and formats.phase_history_writer, so no
stage holds a whole cube and none's working set grows with n_bins,
save for detect's map:

- simulate generates, injects targets into and writes one block of
  simulate.BLOCK_BINS bins at a time (K * 256 * p * q entries). With
  --threads N above 1 the pool draws up to N blocks while the calling
  thread writes one, so it holds N + 1 blocks, each with its draw's
  scratch (a pass of the block and two 256 x q speckle arrays);
- estimate fits a K-pass cube as one K*p-channel system through
  multipass.joint_snapshots, so its fit is bitwise multipass_estimate's.
  With at least p*q bins it reads chunks of 1024 bins (lrkron._COV_CHUNK)
  and holds one chunk and the tile pairs' real sums, then those sums
  and the pq x pq matrix; with fewer, the whole cube, which is then
  smaller than that matrix, held once, channel-major, beside one
  cube-sized scratch for the sweeps and the q x q iterate. A fit that
  numpy cannot allocate exits 2 with the bytes its path needs
  (lrkron.working_set);
- filter reads, filters and writes one block of filters.BLOCK_BINS
  bins at a time;
- detect reads one block of filters.BLOCK_BINS bins at a time and never
  forms a filtered cube: detection_image and, with --multipass,
  pass_images scan the raw blocks with the filter folded into the
  detection operators (see filters). It holds the map, n_bins x D
  float64 per pass.

Every output goes to a temporary file next to it and is renamed into
place on success (see formats), so a stage that fails leaves no
output, and `filter --input X --output X` is safe. Each input is
checked when opened (a KPH cube's header and target tail, a KES2
estimate in full), before any output is opened and before any block
is read.
"""

import argparse
import os
import re
import sys
from contextlib import closing
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from . import formats
from .errors import DataError, DimensionError, KronStapError
from .filters import FILTER_KINDS, bin_blocks, build_filter, \
    detection_image, make_doppler_grid, make_spatial_grid
from .lrkron import lr_kron_estimate, sample_covariance, working_set
# stack_passes stays importable from here: perfbench's span tracer wraps
# cli.stack_passes by name, while detect --multipass scans the pass cube
from .multipass import change_detect, joint_snapshots, pass_images, \
    stack_passes  # noqa: F401
from .parallel import WorkerPool
# gen_clutter, gen_multipass and inject_target stay importable from here:
# perfbench's span tracer wraps them by name, while cmd_simulate streams
# the scene's blocks and adds targets to them in place
from .simulate import TargetTruth, _add_target, gen_clutter, \
    gen_multipass, inject_target, multipass_blocks  # noqa: F401

USAGE_ERROR = 1
DATA_ERROR = 2
NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit status 1.

    A value that starts with '-' is read as a negative number, not an
    option, in every float spelling (-1e-3, -.5, -inf), not only
    argparse's plain decimals; subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _add_common(parser):
    parser.add_argument("--threads", type=int, default=None,
                        help="threads for simulate's block draws and the "
                             "estimator's snapshot sweeps "
                             "(default: KRONSTAP_THREADS or 1)")


def build_parser():
    parser = _Parser(prog="kronstap",
                     description="Kronecker-structured STAP toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a clutter cube")
    p_sim.add_argument("--config", required=True, help="scene config file")
    p_sim.add_argument("--output", required=True, help="output .kph file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit the Kronecker covariance")
    p_est.add_argument("--input", required=True, help="input .kph file")
    p_est.add_argument("--output", required=True, help="output estimate file")
    p_est.add_argument("--ra", type=int, required=True, help="spatial rank")
    p_est.add_argument("--rb", type=int, required=True, help="temporal rank")
    p_est.add_argument("--eps", type=float, default=1e-4,
                       help="residual stall tolerance; a residual r "
                            "carries about 2.2e-16 / r of rounding, and a "
                            "tolerance below that compares noise")
    p_est.add_argument("--max-iter", type=int, default=100)
    _add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_fil = sub.add_parser("filter", help="apply a clutter filter to a cube")
    p_fil.add_argument("--input", required=True)
    p_fil.add_argument("--estimate", required=True)
    p_fil.add_argument("--output", required=True)
    p_fil.add_argument("--kind", choices=FILTER_KINDS, default="kron")
    p_fil.add_argument("--no-temporal-projection", action="store_true",
                       help="spatial-only cancelation")
    _add_common(p_fil)
    p_fil.set_defaults(func=cmd_filter)

    p_det = sub.add_parser("detect", help="form a detection or change map")
    p_det.add_argument("--input", required=True)
    p_det.add_argument("--estimate", required=True)
    p_det.add_argument("--output", required=True, help="output CSV path")
    p_det.add_argument("--kind", choices=FILTER_KINDS, default="kron")
    p_det.add_argument("--grid-doppler", type=int, default=64)
    p_det.add_argument("--grid-spatial", type=int, default=16)
    p_det.add_argument("--multipass", action="store_true",
                       help="two-pass change map instead of a detection map")
    p_det.add_argument("--signed", action="store_true",
                       help="keep the sign of the change map "
                            "(needs --multipass)")
    p_det.add_argument("--no-temporal-projection", action="store_true")
    p_det.add_argument("--pgm", default=None, help="also write a PGM image")
    _add_common(p_det)
    p_det.set_defaults(func=cmd_detect)

    p_ben = sub.add_parser("bench", help="time the estimator over a sweep")
    p_ben.add_argument("--output", required=True, help="output CSV path")
    p_ben.add_argument("--sweep", default=None,
                       help="sweep file with 'row = p q threads eps' lines")
    p_ben.add_argument("--default-sweep", action="store_true",
                       help="run the built-in grid")
    p_ben.add_argument("--trials", type=int, default=10)
    p_ben.add_argument("--n", type=int, default=5, dest="n_train",
                       help="training snapshots per trial")
    p_ben.add_argument("--seed", type=int, default=0)
    p_ben.set_defaults(func=cmd_bench)
    return parser


def cmd_simulate(args):
    job = formats.load_scene_config(args.config)
    scene = job.scene
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
        scene.validate()
    truth = [TargetTruth(*target) for target in job.targets]
    with WorkerPool(args.threads) as pool, \
            formats.phase_history_writer(args.output, scene.p, scene.q,
                                         job.n_passes, scene.n_bins,
                                         truth) as write, \
            closing(multipass_blocks(
                scene, job.n_passes, change_fraction=job.change_fraction,
                shared_calibration=job.shared_calibration,
                unit_gains=job.unit_pass_gains,
                gain_spread=job.pass_gain_spread, pool=pool)) as blocks:
        for m0, m1, block in blocks:
            # targets go into pass 0 of their block, in config order
            for bin_index, doppler, amplitude in job.targets:
                if m0 <= bin_index < m1:
                    _add_target(block[0, bin_index - m0], bin_index,
                                doppler, amplitude, kappa=scene.kappa)
            write(block)
    print(f"wrote {args.output}: {job.n_passes} pass(es), "
          f"{scene.n_bins} bins of {scene.p}x{scene.q}, "
          f"{len(truth)} target(s)")
    return 0


def cmd_estimate(args):
    with formats.PhaseHistoryReader(args.input) as cube:
        n, d = cube.n_bins, cube.n_passes * cube.p * cube.q
        # numpy refuses an array it cannot allocate at once
        try:
            scm = sample_covariance(*joint_snapshots(cube))
            with WorkerPool(args.threads) as pool:
                try:
                    est = lr_kron_estimate(scm, args.ra, args.rb,
                                           tol=args.eps,
                                           max_iter=args.max_iter, pool=pool)
                except DimensionError as exc:
                    raise DimensionError(
                        f"{exc} (from --ra {args.ra}, --rb {args.rb}, "
                        f"--eps {args.eps}, --max-iter {args.max_iter})"
                    ) from None
        except MemoryError:
            path, need = working_set(n, cube.n_passes * cube.p, cube.q)
            raise DataError(
                f"the {path} path's fit of {n} snapshots of length {d} "
                f"needs about {need:,} bytes, more than can be "
                f"allocated") from None
    formats.write_estimate(args.output, est)
    formats.write_residuals_csv(args.output + ".residuals.csv", est.residuals)
    state = "converged" if est.converged else "hit max-iter"
    print(f"wrote {args.output}: {est.iterations} iteration(s), "
          f"final residual {est.residuals[-1]:.3e}, {state}")
    return 0 if est.converged else NO_CONVERGENCE


def _projection_filter_for(cube, args):
    """The filter of the estimate args.estimate names, for cube's shape.

    Returns (filter, whether the estimate is stacked). The estimate is
    dropped once its filter is built, so the memory of its factors is
    free again for the pass over the cube that follows.
    """
    est = formats.read_estimate(args.estimate)
    sdim = est.spatial_factor.dim
    stacked = sdim == cube.n_passes * cube.p and cube.n_passes > 1
    if not stacked and sdim != cube.p:
        raise DataError(
            f"estimate spatial dim {sdim} matches neither p={cube.p} "
            f"nor stacked {cube.n_passes * cube.p}"
        )
    if est.temporal_factor.dim != cube.q:
        raise DataError(
            f"estimate temporal dim {est.temporal_factor.dim} "
            f"does not match q={cube.q}"
        )
    filt = build_filter(args.kind, estimate=est,
                        drop_temporal=args.no_temporal_projection)
    return filt, stacked


def cmd_filter(args):
    with formats.PhaseHistoryReader(args.input) as cube:
        filt, stacked = _projection_filter_for(cube, args)
        k, n_bins, p, q = cube.n_passes, cube.n_bins, cube.p, cube.q
        with formats.phase_history_writer(args.output, p, q, k, n_bins,
                                          cube.truth) as write:
            for m0, m1 in bin_blocks(n_bins):
                # bin-major block; a stacked bin's K*p rows are K pass
                # blocks of p, gathered for this block alone
                block = cube.read(m0, m1).swapaxes(0, 1)
                if stacked:
                    block = block.reshape(m1 - m0, k * p, q)
                filtered = filt.apply_matrix(block)
                write(filtered.reshape(m1 - m0, k, p, q).swapaxes(0, 1))
    print(f"wrote {args.output}: filtered with {args.kind}")
    return 0


def cmd_detect(args):
    if args.signed and not args.multipass:
        sys.stderr.write("kronstap detect: error: --signed applies only to "
                         "the change map of --multipass\n")
        return USAGE_ERROR
    with formats.PhaseHistoryReader(args.input) as cube:
        if args.multipass:
            if cube.n_passes != 2:
                raise DataError(f"change detection needs exactly 2 passes, "
                                f"got {cube.n_passes}")
            filt, stacked = _projection_filter_for(cube, args)
            if not stacked:
                raise DataError("change detection needs a stacked estimate")
        else:
            if cube.n_passes != 1:
                raise DataError("multipass input needs --multipass")
            filt, _ = _projection_filter_for(cube, args)
        # the grid counts size the grids, the scan's operators and the
        # map; numpy refuses an array it cannot allocate at once, with a
        # MemoryError or, when its byte size overflows, a ValueError
        try:
            dopplers = make_doppler_grid(args.grid_doppler)
            if args.multipass:
                images = pass_images(filt, cube, dopplers, args.grid_spatial)
                image = change_detect(images[0], images[1],
                                      signed=args.signed)
                label = "change map"
            else:
                grid = make_spatial_grid(cube.p, args.grid_spatial)
                image = detection_image(filt, cube, dopplers, grid)
                label = "detection map"
        except (MemoryError, ValueError):
            raise DataError(
                f"--grid-doppler {args.grid_doppler} with --grid-spatial "
                f"{args.grid_spatial} over {cube.n_bins} bins needs more "
                f"memory than can be allocated") from None
    formats.write_detection_csv(args.output, image)
    if args.pgm is not None:
        formats.write_pgm(args.pgm, np.abs(image.values))
    peak = float(np.max(np.abs(image.values))) if image.values.size else 0.0
    print(f"wrote {args.output}: {label}, peak magnitude {peak:.4e}")
    return 0


def cmd_bench(args):
    if args.default_sweep == (args.sweep is not None):
        raise DataError("pass exactly one of --sweep or --default-sweep")
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--n", args.n_train, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise DataError(f"{flag} must be >= {least}, got {value}")
    sweep = bench_mod.default_sweep() if args.default_sweep \
        else formats.load_sweep(args.sweep)

    def progress(trial, trials):
        print(f"completed trial {trial + 1}/{trials} across {len(sweep)} rows")

    rows = bench_mod.run_bench(sweep, trials=args.trials, n=args.n_train,
                               seed=args.seed, progress=progress)
    formats.write_bench_csv(args.output, rows)
    for p, q, threads, eps in sweep:
        mean = bench_mod.mean_seconds(rows, p, q, threads, eps)
        print(f"p={p} q={q} threads={threads} eps={eps:g}: "
              f"mean {mean:.4f} s over {args.trials} trial(s)")
    print(f"wrote {args.output}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if "threads" in vars(args):
        threads = args.threads
        if threads is None:
            env = os.environ.get("KRONSTAP_THREADS", "1")
            try:
                threads = int(env)
            except ValueError:
                sys.stderr.write(
                    f"kronstap: bad KRONSTAP_THREADS value {env!r}\n")
                return USAGE_ERROR
        if threads < 1:
            sys.stderr.write(
                f"kronstap: thread count must be >= 1, got {threads}\n")
            return USAGE_ERROR
        args.threads = threads
    try:
        return args.func(args)
    except KronStapError as exc:
        sys.stderr.write(f"kronstap: error: {exc}\n")
        return DATA_ERROR
    except OSError as exc:
        sys.stderr.write(f"kronstap: error: {exc}\n")
        return DATA_ERROR


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
