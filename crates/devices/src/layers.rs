//! Layer shapes for the analytical models, plus the published
//! dimensions of the full-size networks the paper characterizes.

use insitu_nn::{LayerDesc, NetworkDesc};

/// Shape of one convolutional layer in the paper's `M, N, K, R, C`
/// notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Output feature maps (filters).
    pub m: usize,
    /// Input feature maps.
    pub n: usize,
    /// Square kernel edge.
    pub k: usize,
    /// Output height.
    pub r: usize,
    /// Output width.
    pub c: usize,
}

impl ConvShape {
    /// Multiply-accumulate ops for one sample, the paper's Eq. (1).
    pub fn ops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * (self.k * self.k) as u64 * self.r as u64
            * self.c as u64
    }

    /// Elements of the im2col data matrix for a batch (`Din`).
    pub fn din_elems(&self, batch: usize) -> u64 {
        (self.n * self.k * self.k * self.r * self.c) as u64 * batch as u64
    }

    /// Elements of the filter matrix (`Dw`), batch-independent.
    pub fn dw_elems(&self) -> u64 {
        (self.m * self.n * self.k * self.k) as u64
    }

    /// Elements of the output matrix for a batch (`Dout`).
    pub fn dout_elems(&self, batch: usize) -> u64 {
        (self.m * self.r * self.c) as u64 * batch as u64
    }

    /// The same layer with its spatial output halved (ceil), which is
    /// how the diagnosis network's patch-sized layers relate to the
    /// inference network's (e.g. 55×55 → 27×27 in the paper's first
    /// layer, a 4× compute reduction).
    pub fn halved_spatial(&self) -> ConvShape {
        ConvShape { r: self.r.div_ceil(2).max(1), c: self.c.div_ceil(2).max(1), ..*self }
    }
}

/// Shape of one fully connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcShape {
    /// Input features.
    pub input: usize,
    /// Output features.
    pub output: usize,
}

impl FcShape {
    /// Multiply-accumulate ops for one sample.
    pub fn ops(&self) -> u64 {
        2 * self.input as u64 * self.output as u64
    }

    /// Weight elements (`Dw`).
    pub fn dw_elems(&self) -> u64 {
        (self.input * self.output) as u64
    }
}

/// One compute-relevant layer of a network under analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerShape {
    /// Convolutional layer.
    Conv(ConvShape),
    /// Fully connected layer.
    Fc(FcShape),
}

impl LayerShape {
    /// Multiply-accumulate ops for one sample.
    pub fn ops(&self) -> u64 {
        match self {
            LayerShape::Conv(c) => c.ops(),
            LayerShape::Fc(f) => f.ops(),
        }
    }

    /// Whether this is a convolutional layer.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerShape::Conv(_))
    }
}

/// A network as seen by the analytical models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkShapes {
    /// Network name for reports.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerShape>,
}

impl NetworkShapes {
    /// Creates a network description.
    pub fn new(name: impl Into<String>, layers: Vec<LayerShape>) -> Self {
        NetworkShapes { name: name.into(), layers }
    }

    /// The convolutional layers, in order.
    pub fn convs(&self) -> Vec<ConvShape> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                LayerShape::Conv(c) => Some(*c),
                LayerShape::Fc(_) => None,
            })
            .collect()
    }

    /// The fully connected layers, in order.
    pub fn fcs(&self) -> Vec<FcShape> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                LayerShape::Fc(f) => Some(*f),
                LayerShape::Conv(_) => None,
            })
            .collect()
    }

    /// Total per-sample ops.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(LayerShape::ops).sum()
    }

    /// The published AlexNet dimensions (227×227 input, ungrouped).
    pub fn alexnet() -> NetworkShapes {
        NetworkShapes::new(
            "alexnet",
            vec![
                LayerShape::Conv(ConvShape { m: 96, n: 3, k: 11, r: 55, c: 55 }),
                LayerShape::Conv(ConvShape { m: 256, n: 96, k: 5, r: 27, c: 27 }),
                LayerShape::Conv(ConvShape { m: 384, n: 256, k: 3, r: 13, c: 13 }),
                LayerShape::Conv(ConvShape { m: 384, n: 384, k: 3, r: 13, c: 13 }),
                LayerShape::Conv(ConvShape { m: 256, n: 384, k: 3, r: 13, c: 13 }),
                LayerShape::Fc(FcShape { input: 9216, output: 4096 }),
                LayerShape::Fc(FcShape { input: 4096, output: 4096 }),
                LayerShape::Fc(FcShape { input: 4096, output: 1000 }),
            ],
        )
    }

    /// The published VGG-16 dimensions (224×224 input).
    pub fn vgg16() -> NetworkShapes {
        let conv = |m, n, s| LayerShape::Conv(ConvShape { m, n, k: 3, r: s, c: s });
        NetworkShapes::new(
            "vgg16",
            vec![
                conv(64, 3, 224),
                conv(64, 64, 224),
                conv(128, 64, 112),
                conv(128, 128, 112),
                conv(256, 128, 56),
                conv(256, 256, 56),
                conv(256, 256, 56),
                conv(512, 256, 28),
                conv(512, 512, 28),
                conv(512, 512, 28),
                conv(512, 512, 14),
                conv(512, 512, 14),
                conv(512, 512, 14),
                LayerShape::Fc(FcShape { input: 25088, output: 4096 }),
                LayerShape::Fc(FcShape { input: 4096, output: 4096 }),
                LayerShape::Fc(FcShape { input: 4096, output: 1000 }),
            ],
        )
    }

    /// The diagnosis-network view of an inference network: the same
    /// conv stack with halved spatial outputs (patch-sized inputs),
    /// replicated over `patches` independent tiles, plus the jigsaw
    /// head's FC layers.
    pub fn diagnosis_of(inference: &NetworkShapes, patches: usize) -> NetworkShapes {
        let mut layers: Vec<LayerShape> = Vec::new();
        for l in &inference.layers {
            if let LayerShape::Conv(c) = l {
                // One patch's conv, replicated `patches` times in ops by
                // scaling R (a conservative flattening that preserves
                // total compute).
                let per_patch = c.halved_spatial();
                layers.push(LayerShape::Conv(ConvShape {
                    r: per_patch.r * patches,
                    ..per_patch
                }));
            }
        }
        // Jigsaw head sized after the paper's AlexNet-based diagnosis
        // net: concatenated features -> 4096 -> permutation classes.
        let feat = 9216 / 4; // quarter-size final feature map per patch
        layers.push(LayerShape::Fc(FcShape { input: feat * patches, output: 4096 }));
        layers.push(LayerShape::Fc(FcShape { input: 4096, output: 100 }));
        NetworkShapes::new(format!("{}-diagnosis", inference.name), layers)
    }
}

/// Converts a trained `insitu-nn` network description into analytical
/// shapes, so the device models can plan for the actual Mini networks
/// too.
impl From<&NetworkDesc> for NetworkShapes {
    fn from(desc: &NetworkDesc) -> Self {
        let layers = desc
            .layers
            .iter()
            .map(|l| match *l {
                LayerDesc::Conv { m, n, k, r, c } => {
                    LayerShape::Conv(ConvShape { m, n, k, r, c })
                }
                LayerDesc::Fc { input, output } => {
                    LayerShape::Fc(FcShape { input, output })
                }
            })
            .collect();
        NetworkShapes::new(desc.name.clone(), layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_conv1_ops_match_eq1() {
        let net = NetworkShapes::alexnet();
        let conv1 = net.convs()[0];
        assert_eq!(conv1.ops(), 2 * 96 * 3 * 121 * 55 * 55);
    }

    #[test]
    fn alexnet_structure() {
        let net = NetworkShapes::alexnet();
        assert_eq!(net.convs().len(), 5);
        assert_eq!(net.fcs().len(), 3);
        // AlexNet ~1.45 Gops conv + ~0.12 Gops fc.
        let total = net.total_ops();
        assert!(total > 2_000_000_000 && total < 3_500_000_000, "{total}");
    }

    #[test]
    fn vgg16_is_much_heavier() {
        let a = NetworkShapes::alexnet().total_ops();
        let v = NetworkShapes::vgg16().total_ops();
        assert!(v > 8 * a, "vgg {v} vs alexnet {a}");
    }

    #[test]
    fn halved_spatial_quarter_compute() {
        let c = ConvShape { m: 96, n: 3, k: 11, r: 55, c: 55 };
        let h = c.halved_spatial();
        assert_eq!((h.r, h.c), (28, 28));
        assert!(h.ops() * 3 < c.ops());
    }

    #[test]
    fn diagnosis_ops_roughly_double_inference_convs() {
        // 9 patches at quarter compute each ≈ 2.25x the conv ops.
        let inf = NetworkShapes::alexnet();
        let diag = NetworkShapes::diagnosis_of(&inf, 9);
        let inf_conv_ops: u64 = inf.convs().iter().map(ConvShape::ops).sum();
        let diag_conv_ops: u64 = diag.convs().iter().map(ConvShape::ops).sum();
        let ratio = diag_conv_ops as f64 / inf_conv_ops as f64;
        assert!(ratio > 1.8 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn data_matrix_sizes() {
        let c = ConvShape { m: 4, n: 3, k: 2, r: 5, c: 5 };
        assert_eq!(c.din_elems(2), (3 * 4 * 25 * 2) as u64);
        assert_eq!(c.dw_elems(), (4 * 3 * 4) as u64);
        assert_eq!(c.dout_elems(2), (4 * 25 * 2) as u64);
    }

    #[test]
    fn conversion_from_nn_desc() {
        let desc = NetworkDesc::new(
            "toy",
            vec![
                LayerDesc::Conv { m: 4, n: 3, k: 3, r: 8, c: 8 },
                LayerDesc::Fc { input: 256, output: 10 },
            ],
        );
        let shapes = NetworkShapes::from(&desc);
        assert_eq!(shapes.layers.len(), 2);
        assert_eq!(shapes.total_ops(), desc.total_ops());
        assert!(shapes.layers[0].is_conv());
    }
}
