// Determinism-taint fixture (positive): maps built on the fixed-key
// hasher. Their hashes are the same in every run, but iteration still
// follows bucket layout (capacity, insertion history), so folding one
// into a fingerprint without a sort is still a finding — for a field
// and for a local binding alike.
use bypassd_sim::FixedState;
use std::collections::HashMap;

pub struct Store {
    blocks: HashMap<u64, u64, FixedState>,
}

impl Store {
    pub fn digest(&self, h: &mut Fnv64) {
        for (k, v) in self.blocks.iter() {
            h.write_u64(*k ^ *v);
        }
    }
}

pub fn digest_local(h: &mut Fnv64) {
    let mut seen: HashMap<u64, u64, FixedState> = HashMap::default();
    seen.insert(1, 2);
    for k in seen.keys() {
        h.write_u64(*k);
    }
}
