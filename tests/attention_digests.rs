//! Golden digests of one multi-head attention layer, forward and
//! backward. For each attention kind (full, causal, ProbSparse with fewer
//! kept queries than queries) and for one and three stacked samples, with
//! fewer queries than keys, a CRC32 over the f64 bit patterns pins the
//! layer output, the gradients of the query, key and value inputs, and
//! the gradients of the four projections. Any change to the attention
//! forward or backward that moves a bit fails here.

use evalimplsts::compression::crc32;
use evalimplsts::neural::attention::{AttentionKind, MultiHeadAttention};
use evalimplsts::neural::graph::{Graph, ParamStore};
use evalimplsts::neural::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const D_MODEL: usize = 8;
const HEADS: usize = 2;
/// Queries and keys per sample. ProbSparse with factor 1 keeps
/// `ceil(ln 7) = 2` of the 5 queries.
const LQ: usize = 5;
const LK: usize = 7;

/// Each case's CRC32s: output, then the q, k and v input gradients, then
/// the `wq`, `wk`, `wv` and `wo` gradients.
const GOLDEN: &[(&str, [u32; 8])] = &[
    (
        "full/n1",
        [
            0x9c7b224b, 0x4517e412, 0xe54e840d, 0x8aeecbd3, 0xac6b8551, 0x4266bd48, 0x39ff03da,
            0xd9946bde,
        ],
    ),
    (
        "full/n3",
        [
            0x7fd5ea5e, 0x59e84a13, 0x8e638a3a, 0x9e089b5e, 0x158bdaaa, 0xb775a69c, 0x3acfdd1a,
            0xca7c4db3,
        ],
    ),
    (
        "causal/n1",
        [
            0x560a07bd, 0x6500cf73, 0x2593678d, 0xec4be966, 0x56e065b2, 0x41c88241, 0x40bc57fb,
            0x9a367ebe,
        ],
    ),
    (
        "causal/n3",
        [
            0x48237330, 0x2358420e, 0xcb10f3cd, 0xfc60b6f2, 0x3db2dc45, 0xf6a8327a, 0x437f77c4,
            0x9f6310c6,
        ],
    ),
    (
        "probsparse/n1",
        [
            0x9bd7640c, 0x4b97b9df, 0x7bdd0901, 0xcd6a7b9f, 0x5ea19157, 0xb9b98ec4, 0x7480df6d,
            0x4fa102ad,
        ],
    ),
    (
        "probsparse/n3",
        [
            0x2a3b6b4c, 0x57dbe2a9, 0x64c5ab7b, 0xcce692c8, 0xf45959fb, 0xc667f044, 0x4958f865,
            0xd5902687,
        ],
    ),
];

fn bits_digest(values: &[f64]) -> u32 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    crc32(&bytes)
}

/// Deterministic, sign-mixed inputs with no two rows alike.
fn input(rows: usize, salt: usize) -> Tensor {
    let data = (0..rows * D_MODEL)
        .map(|i| (((i * 37 + salt * 11) % 29) as f64 - 14.0) / 9.0 + (i as f64 * 0.013).sin())
        .collect();
    Tensor::new(rows, D_MODEL, data)
}

/// Runs one forward and backward pass over `n` stacked samples and
/// returns the eight digests.
fn digests(kind: AttentionKind, causal: bool, n: usize) -> [u32; 8] {
    let mut store = ParamStore::new();
    let mha =
        MultiHeadAttention::new(&mut store, "attn", D_MODEL, HEADS, &mut StdRng::seed_from_u64(5));
    let q_id = store.add("q_in", input(n * LQ, 1));
    let k_id = store.add("k_in", input(n * LK, 2));
    let v_id = store.add("v_in", input(n * LK, 3));
    store.zero_grads();
    let mut g = Graph::new();
    let q = g.param(&store, q_id);
    let k = g.param(&store, k_id);
    let v = g.param(&store, v_id);
    let out = mha.forward(&mut g, &store, q, k, v, kind, causal, n);
    let target = input(n * LQ, 4);
    let loss = g.mse(out, &target);
    g.backward(loss, &mut store);
    let mut crcs = vec![bits_digest(g.value(out).data())];
    crcs.extend([q_id, k_id, v_id].map(|id| bits_digest(store.grad(id).data())));
    crcs.extend(mha.param_ids().into_iter().map(|id| bits_digest(store.grad(id).data())));
    crcs.try_into().expect("eight digests")
}

#[test]
fn attention_forward_and_backward_match_golden_digests() {
    let cases = [
        ("full", AttentionKind::Full, false),
        ("causal", AttentionKind::Full, true),
        ("probsparse", AttentionKind::ProbSparse { factor: 1 }, false),
    ];
    let mut got = Vec::new();
    for (name, kind, causal) in cases {
        for n in [1, 3] {
            got.push((format!("{name}/n{n}"), digests(kind, causal, n)));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, crcs)| {
            let cells: Vec<String> = crcs.iter().map(|c| format!("0x{c:08x}")).collect();
            format!("    (\"{case}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    let want: Vec<(String, [u32; 8])> =
        GOLDEN.iter().map(|(case, crcs)| (case.to_string(), *crcs)).collect();
    assert_eq!(got, want, "attention golden table:\n{table}");
}
