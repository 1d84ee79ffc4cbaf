//! Shared pieces: seeded RNG, fields, order statistics, bound checks,
//! host fingerprint and a small JSON writer.

use cuszp_core::{DType, FloatData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: the benchmark's only randomness, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i + 1));
        }
    }
}

/// Field values in the element type the workload stores them as.
pub enum Data {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

/// One generated input array.
pub struct Field {
    pub name: String,
    pub shape: Vec<usize>,
    pub data: Data,
}

impl Field {
    pub fn from_dataset(f: datasets::Field, name: String, promote: bool) -> Field {
        let data = if promote {
            Data::F64(f.data.iter().map(|&v| v as f64).collect())
        } else {
            Data::F32(f.data)
        };
        Field {
            name,
            shape: f.shape,
            data,
        }
    }
    pub fn bytes(&self) -> u64 {
        match &self.data {
            Data::F32(v) => 4 * v.len() as u64,
            Data::F64(v) => 8 * v.len() as u64,
        }
    }
    pub fn dtype(&self) -> DType {
        match &self.data {
            Data::F32(_) => DType::F32,
            Data::F64(_) => DType::F64,
        }
    }
}

/// The element types the workloads store.
pub trait Elem: FloatData + cuszp_store::ShardElement + Default {
    fn of(f: &Field) -> Option<&[Self]>;
}

impl Elem for f32 {
    fn of(f: &Field) -> Option<&[f32]> {
        match &f.data {
            Data::F32(v) => Some(v),
            Data::F64(_) => None,
        }
    }
}

impl Elem for f64 {
    fn of(f: &Field) -> Option<&[f64]> {
        match &f.data {
            Data::F64(v) => Some(v),
            Data::F32(_) => None,
        }
    }
}

pub fn gb(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e9 / secs
}

/// Σ over keys of the median of each key's samples (empty keys skipped).
pub fn sum_medians(v: &[Vec<f64>]) -> f64 {
    v.iter().filter(|s| !s.is_empty()).map(|s| median(s)).sum()
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail quantile reported as `*_p99_us`: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has
/// ten beyond it (never below the median). Returns `(q, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let q = (1.0 - 10.0 / n).clamp(0.5, 0.99);
    (q, quantile(v, q))
}

/// Every reconstructed element is within `eb` of the original, with the
/// same representability slack as `cuszp_core::verify::check_bound`.
pub fn within_bound<T: FloatData>(orig: &[T], rec: &[T], eb: f64) -> bool {
    let ulp = match T::DTYPE {
        DType::F32 => 2f64.powi(-23),
        DType::F64 => 2f64.powi(-52),
    };
    orig.len() == rec.len()
        && orig.iter().zip(rec).all(|(&o, &r)| {
            let (o, r) = (o.to_f64(), r.to_f64());
            (o - r).abs() <= eb * (1.0 + 1e-6) + o.abs().max(r.abs()) * ulp + f64::EPSILON
        })
}

/// Peak resident set of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(f64::NAN)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU model name, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of the highest-level cache cpu0 reports (0 if unknown).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// The commit, when the checkout is a git repository (`None` otherwise:
/// the benchmark also runs in plain source trees).
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|c| c.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Identity of the code under test: an FNV-1a digest of the sources the
/// benchmark builds (workspace crates, lock file and the benchmark).
pub fn code_id() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_rs(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Named metric values with units, in a stable order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| v.0)
    }
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, (v, u))) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v));
        }
        s.push('}');
        s
    }
}

/// A JSON number with all its digits (non-finite values become null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}
