//! Archive a whole dataset: compress every field of a synthetic NYX
//! snapshot into one `cuszp-store` shard per field, write the shards to
//! a directory, reopen them, and verify every field — the batch workflow
//! a simulation campaign would use for post-hoc analysis storage.
//!
//! ```text
//! cargo run --release --example archive_dataset
//! ```

use cuszp_core::ErrorBound;
use cuszp_store::{write_shard, CodecRegistry, CuszpCodec, Shard, StoreScratch};
use datasets::{generate, DatasetId, Scale};

/// Chunk edge per axis: 64³ chunks keep each frame a few hundred KiB.
const CHUNK_EDGE: usize = 64;

fn main() {
    let fields = generate(DatasetId::Nyx, Scale::Small);
    let bound = ErrorBound::Rel(1e-3);
    let dir = std::env::temp_dir().join(format!("nyx_snapshot.{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create archive directory");

    // The REL denominator is each field's own value range, as in the
    // per-file artifact workflow; the shard keeps the resolved bound.
    let mut bounds = Vec::with_capacity(fields.len());
    let (mut raw, mut stored) = (0u64, 0u64);
    for field in &fields {
        let eb = harness::resolve_bound(field, bound);
        let chunk: Vec<usize> = field.shape.iter().map(|&d| d.min(CHUNK_EDGE)).collect();
        let shard = write_shard(&field.data, &field.shape, &chunk, &CuszpCodec, eb)
            .expect("field fits the shard format");
        std::fs::write(dir.join(format!("{}.shard", field.name)), &shard).expect("write shard");
        println!(
            "  {:<22} {:>9} -> {:>9} bytes ({:.2}x, eb {:.3e})",
            field.name,
            field.size_bytes(),
            shard.len(),
            field.size_bytes() as f64 / shard.len() as f64,
            eb
        );
        raw += field.size_bytes();
        stored += shard.len() as u64;
        bounds.push(eb);
    }
    println!(
        "\narchived {} fields: {:.1} MB -> {:.1} MB ({:.2}x) under {}",
        fields.len(),
        raw as f64 / 1e6,
        stored as f64 / 1e6,
        raw as f64 / stored as f64,
        dir.display()
    );

    // Reopen every shard from disk and verify each field against its
    // own bound.
    let registry = CodecRegistry::with_defaults();
    let mut scratch = StoreScratch::new();
    for (field, &eb) in fields.iter().zip(&bounds) {
        let shard =
            Shard::open_path(&dir.join(format!("{}.shard", field.name))).expect("shard reopens");
        assert_eq!(shard.shape(), &field.shape[..], "{} shape", field.name);
        let mut restored = vec![0f32; shard.num_elements()];
        shard
            .read_all(&registry, &mut scratch, &mut restored)
            .expect("shard decodes");
        assert!(
            cuszp_core::verify::check_bound(&field.data, &restored, eb),
            "{} violated its bound after the disk round trip",
            field.name
        );
    }
    println!(
        "all {} fields verified within bound after reload",
        fields.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
