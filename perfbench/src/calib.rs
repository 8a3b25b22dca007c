//! Host-speed calibration.
//!
//! The benchmark host shares its physical cores with other machines: for
//! minutes at a time every timing on it runs 30–60 % slow, and its speed
//! also drifts within a run, so no estimator over one run's passes can
//! remove it. A fixed reference kernel — defined here and independent of
//! every workspace crate, so no change to the program can move it — is
//! timed in short probes between the timed units of work (passes, design
//! campaigns, set-ups), while none of the program's threads are running,
//! on as many threads as the timed work uses. A unit's host speed is the
//! mean median slice time of the probe just before it and the one just
//! after it; its timing multiplied by [`Shape::ref_slice_ms`] / that speed
//! reads as seconds on a host where one slice takes
//! [`Shape::ref_slice_ms`].
//!
//! The kernel mixes the kinds of work the timed passes do: a gather /
//! bitwise / scatter sweep over a 512 KiB word array (the shape of a
//! bit-sliced netlist sweep) and hinge-loss SGD steps over a small dense
//! matrix (the shape of model training), plus — for work whose data spills
//! the core's 2 MiB L2, see [`Shape`] — gathers over an 8 MiB array in the
//! L3 the host's tenants share.

use crate::stats::{median, ms, quantile, Rng};
use std::time::{Duration, Instant};

/// Nets of the sweep (64 Ki words, 512 KiB) and gates per sweep.
const NETS: usize = 1 << 16;
const GATES: usize = 1 << 14;

/// Samples and features of the SGD part.
const ROWS: usize = 128;
const DIMS: usize = 32;

/// Words of the [`Shape::Memory`] array (8 MiB) and gathers per sweep.
const FAR_WORDS: usize = 1 << 20;
const FAR_GATHERS: usize = 1 << 14;

/// Sweeps and SGD epochs per slice.
const REPS: usize = 20;

/// Slices per thread in one probe.
const SLICES: usize = 9;

/// What the reference kernel touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The sweep and the SGD steps: data that stays in the core's own
    /// caches, like training, elaboration and serving a small netlist.
    Core,
    /// [`Shape::Core`] plus the 8 MiB gathers: data that spills into the
    /// shared L3, like the fault campaigns on the largest netlists, which
    /// slow with the other tenants' memory traffic more than `Core` does.
    Memory,
}

impl Shape {
    /// The reference speed: one slice's time in ms on the benchmark's
    /// 2-core Xeon VM when its host is quiet. Only a unit; it cancels
    /// whenever two runs are compared.
    #[must_use]
    pub fn ref_slice_ms(self) -> f64 {
        match self {
            Shape::Core => 0.8,
            Shape::Memory => 2.0,
        }
    }
}

/// One thread's copy of the reference kernel's data.
struct Kernel {
    gates: Vec<[u32; 3]>,
    nets: Vec<u64>,
    x: Vec<f64>,
    y: Vec<f64>,
    w: Vec<f64>,
    /// `(array, gather indices)` for [`Shape::Memory`].
    far: Option<(Vec<u64>, Vec<u32>)>,
}

impl Kernel {
    fn new(shape: Shape) -> Kernel {
        let mut rng = Rng::new(0x5EED, 1);
        let mut net = || (rng.next_u64() % NETS as u64) as u32;
        let gates = (0..GATES).map(|_| [net(), net(), net()]).collect();
        let mut rng = Rng::new(0x5EED, 2);
        let nets = (0..NETS).map(|_| rng.next_u64()).collect();
        let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let x = (0..ROWS * DIMS).map(|_| unit()).collect();
        let y = (0..ROWS).map(|_| if unit() < 0.0 { -1.0 } else { 1.0 }).collect();
        let far = (shape == Shape::Memory).then(|| {
            let mut rng = Rng::new(0x5EED, 3);
            let idx =
                (0..FAR_GATHERS).map(|_| (rng.next_u64() % FAR_WORDS as u64) as u32).collect();
            ((0..FAR_WORDS as u64).collect(), idx)
        });
        Kernel { gates, nets, x, y, w: vec![0.0; DIMS], far }
    }

    /// One slice of reference work; the checksum keeps it observable.
    fn slice(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..REPS {
            for (i, g) in self.gates.iter().enumerate() {
                let (a, b) = (self.nets[g[0] as usize], self.nets[g[1] as usize]);
                let v = match i & 3 {
                    0 => a & b,
                    1 => a | b,
                    2 => a ^ b,
                    _ => !(a & b),
                };
                self.nets[g[2] as usize] = v.rotate_left(7) ^ i as u64;
                acc ^= v;
            }
            if let Some((words, idx)) = &mut self.far {
                for (j, &i) in idx.iter().enumerate() {
                    let v = words[i as usize];
                    words[(i as usize + 1) % FAR_WORDS] = v ^ j as u64;
                    acc = acc.wrapping_add(v);
                }
            }
            for (row, &label) in self.x.chunks_exact(DIMS).zip(&self.y) {
                let dot: f64 = row.iter().zip(&self.w).map(|(a, b)| a * b).sum();
                if label * dot < 1.0 {
                    for (w, a) in self.w.iter_mut().zip(row) {
                        *w = 0.999 * *w + 0.01 * label * a;
                    }
                } else {
                    for w in &mut self.w {
                        *w *= 0.999;
                    }
                }
            }
        }
        acc ^ self.w[0].to_bits()
    }

    /// Times [`SLICES`] slices (ms each).
    fn probe(&mut self) -> Vec<f64> {
        (0..SLICES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.slice());
                ms(t.elapsed())
            })
            .collect()
    }
}

/// A timed unit of program work: when it started and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub took: Duration,
}

impl Span {
    /// The span from `start` until now.
    #[must_use]
    pub fn since(start: Instant) -> Span {
        Span { start, took: start.elapsed() }
    }
}

/// Probes the host's speed on a fixed number of threads at once and keeps
/// every probe of the run.
pub struct Calibrator {
    shape: Shape,
    kernels: Vec<Kernel>,
    /// Every probe: when it ended and its median slice time (ms).
    probes: Vec<(Instant, f64)>,
}

impl Calibrator {
    /// A calibrator for timed work of `shape` on `threads` threads; its
    /// first probe (page faults, cold caches) is discarded.
    #[must_use]
    pub fn new(threads: usize, shape: Shape) -> Calibrator {
        let kernels = (0..threads.max(1)).map(|_| Kernel::new(shape)).collect();
        let mut c = Calibrator { shape, kernels, probes: Vec::new() };
        c.probe();
        c.probes.clear();
        c
    }

    /// One probe: [`SLICES`] slices on every thread at once. Call it only
    /// while none of the program's threads run.
    pub fn probe(&mut self) {
        let slices: Vec<f64> = if let [k] = self.kernels.as_mut_slice() {
            k.probe()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> =
                    self.kernels.iter_mut().map(|k| s.spawn(move || k.probe())).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("probe threads do not panic"))
                    .collect()
            })
        };
        self.probes.push((Instant::now(), median(&slices)));
    }

    /// The factor that turns the timing of `span` into one at the reference
    /// speed: [`Shape::ref_slice_ms`] over the mean median slice of the last
    /// probe before the span and the first after it (whichever exist; every
    /// workload probes before each unit it times).
    #[must_use]
    pub fn factor(&self, span: Span) -> f64 {
        let end = span.start + span.took;
        let before = self.probes.iter().rev().find(|(t, _)| *t <= span.start);
        let after = self.probes.iter().find(|(t, _)| *t >= end);
        let near: Vec<f64> = before.into_iter().chain(after).map(|&(_, m)| m).collect();
        self.shape.ref_slice_ms() * near.len() as f64 / near.iter().sum::<f64>()
    }

    /// `span` in seconds at the reference speed.
    #[must_use]
    pub fn scaled_s(&self, span: Span) -> f64 {
        span.took.as_secs_f64() * self.factor(span)
    }

    /// Prints the run's host speed: the probes' median slice times.
    pub fn report(&self) {
        let slices: Vec<f64> = self.probes.iter().map(|&(_, m)| m).collect();
        println!(
            "host speed ({:?} kernel, {} probes on {} thread(s)): median slice {:.4} ms \
             (p10 {:.4}, p90 {:.4}; reference {} ms); each timing below is scaled by the \
             reference over the mean of the probes just before and after it",
            self.shape,
            slices.len(),
            self.kernels.len(),
            median(&slices),
            quantile(&slices, 0.1),
            quantile(&slices, 0.9),
            self.shape.ref_slice_ms()
        );
    }
}
