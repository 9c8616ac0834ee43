(** Deep-learning case studies: Multi-Channel Convolution (MCC, Listing 12)
    and its capsule-network generalisation MCC_Caps (Figure 3) — the
    10-dimensional computation Barham & Isard single out as "particularly
    challenging to optimize" [6].

    MCC (stride 2, NHWC):
    {v res[n,p,q,k] += img[n, 2p+r, 2q+s, c] * flt[k,r,s,c] v}
    Four concatenation dimensions, three summed ([r], [s], [c]). The [img]
    buffer is declared larger than the accessed region (lines 4-5 of
    Listing 12 / footnote 7).

    MCC_Caps adds 4x4 matrix dimensions: each sliding-window element is a
    small matrix product,
    {v res[n,p,q,k,mi,mj] += img[n,2p+r,2q+s,c,mi,mk] * flt[k,r,s,c,mk,mj] v}
    with reductions over [r], [s], [c], [mk]. *)

val mcc : Workload.t
val mcc_caps : Workload.t
