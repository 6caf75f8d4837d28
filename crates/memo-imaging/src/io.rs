//! Binary PNM (PGM / PPM) reading and writing.
//!
//! Single-band byte images round-trip through `P5` (PGM), three-band byte
//! images through `P6` (PPM). This is enough to inspect the synthetic
//! corpus with any image viewer and to feed external images into the
//! experiments.
//!
//! All failure modes carry a typed [`ImageIoError`] — malformed headers,
//! truncated payloads, and hostile dimensions are reported structurally,
//! never by panic.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use crate::image::{Image, ImagingError, PixelType};

/// Refuse headers whose pixel payload would exceed this many bytes — a
/// hostile 5-byte header must not provoke a multi-gigabyte allocation.
pub const MAX_PIXEL_BYTES: usize = 1 << 30;

/// Why a PNM read or write failed, structurally.
#[derive(Debug)]
pub enum ImageIoError {
    /// The magic number is not `P5` or `P6`.
    UnsupportedMagic(String),
    /// The band count cannot be expressed in PGM/PPM (only 1 or 3 can).
    UnsupportedBandCount(usize),
    /// `maxval` is zero or wider than one byte.
    UnsupportedMaxval(usize),
    /// A header field that should be a number is not.
    BadHeaderToken(String),
    /// The header is not ASCII/UTF-8.
    NonUtf8Header,
    /// The input ended mid-header.
    UnexpectedEof,
    /// `width × height × bands` overflows or exceeds [`MAX_PIXEL_BYTES`].
    OversizedDimensions {
        /// Declared width.
        width: usize,
        /// Declared height.
        height: usize,
        /// Bands implied by the magic number.
        bands: usize,
    },
    /// The pixel payload is shorter than the header promises.
    TruncatedPixels {
        /// Bytes the header requires.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The decoded pixels do not form a valid [`Image`].
    Validation(ImagingError),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for ImageIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageIoError::UnsupportedMagic(m) => write!(f, "unsupported PNM magic {m:?}"),
            ImageIoError::UnsupportedBandCount(n) => {
                write!(f, "{n} bands not expressible in PNM (only 1 or 3)")
            }
            ImageIoError::UnsupportedMaxval(v) => write!(f, "unsupported maxval {v}"),
            ImageIoError::BadHeaderToken(t) => write!(f, "expected a number, got {t:?}"),
            ImageIoError::NonUtf8Header => f.write_str("non-utf8 header token"),
            ImageIoError::UnexpectedEof => f.write_str("unexpected end of header"),
            ImageIoError::OversizedDimensions { width, height, bands } => write!(
                f,
                "declared {width}x{height}x{bands} image exceeds the {MAX_PIXEL_BYTES}-byte cap"
            ),
            ImageIoError::TruncatedPixels { need, have } => {
                write!(f, "truncated pixel data: need {need} bytes, have {have}")
            }
            ImageIoError::Validation(e) => write!(f, "decoded pixels are invalid: {e}"),
            ImageIoError::Io(e) => write!(f, "io failure: {e}"),
        }
    }
}

impl std::error::Error for ImageIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageIoError::Io(e) => Some(e),
            ImageIoError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImageIoError {
    fn from(e: std::io::Error) -> Self {
        ImageIoError::Io(e)
    }
}

impl From<ImagingError> for ImageIoError {
    fn from(e: ImagingError) -> Self {
        ImageIoError::Validation(e)
    }
}

/// Lossy downgrade for callers that pool all imaging failures.
impl From<ImageIoError> for ImagingError {
    fn from(e: ImageIoError) -> Self {
        match e {
            ImageIoError::Io(io) => ImagingError::Io(io),
            ImageIoError::Validation(v) => v,
            other => ImagingError::Format(other.to_string()),
        }
    }
}

/// Write `image` as binary PGM (1 band) or PPM (3 bands).
///
/// Non-byte images are normalized to 0–255 first.
///
/// # Errors
///
/// [`ImageIoError::UnsupportedBandCount`] when the band count is neither
/// 1 nor 3, or [`ImageIoError::Io`] on write failure.
pub fn write_pnm<W: Write>(image: &Image, mut writer: W) -> Result<(), ImageIoError> {
    let image = if image.pixel_type() == PixelType::Byte {
        image.clone()
    } else {
        image.normalized_to_byte()
    };
    let (magic, bands) = match image.bands() {
        1 => ("P5", 1),
        3 => ("P6", 3),
        n => return Err(ImageIoError::UnsupportedBandCount(n)),
    };
    writeln!(writer, "{magic}")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    let mut buf = Vec::with_capacity(image.pixels_per_band() * bands);
    for y in 0..image.height() {
        for x in 0..image.width() {
            for b in 0..bands {
                buf.push(image.get(x, y, b) as u8);
            }
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Write `image` to `path` as binary PGM / PPM.
///
/// # Errors
///
/// As [`write_pnm`], plus file-creation failures.
pub fn save_pnm(image: &Image, path: impl AsRef<Path>) -> Result<(), ImageIoError> {
    let file = std::fs::File::create(path)?;
    write_pnm(image, std::io::BufWriter::new(file))
}

/// Read a binary PGM (`P5`) or PPM (`P6`) image.
///
/// # Errors
///
/// A structured [`ImageIoError`] on malformed headers, hostile
/// dimensions, or truncated pixel data.
pub fn read_pnm<R: Read>(mut reader: R) -> Result<Image, ImageIoError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut pos = 0usize;

    let magic = next_token(&raw, &mut pos)?;
    let bands = match magic.as_str() {
        "P5" => 1usize,
        "P6" => 3,
        other => return Err(ImageIoError::UnsupportedMagic(other.to_string())),
    };
    let width: usize = parse_token(&raw, &mut pos)?;
    let height: usize = parse_token(&raw, &mut pos)?;
    let maxval: usize = parse_token(&raw, &mut pos)?;
    if maxval == 0 || maxval > 255 {
        return Err(ImageIoError::UnsupportedMaxval(maxval));
    }
    // Exactly one whitespace byte separates the header from pixel data.
    pos += 1;

    let need = width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(bands))
        .filter(|&n| n <= MAX_PIXEL_BYTES)
        .ok_or(ImageIoError::OversizedDimensions { width, height, bands })?;
    if raw.len() < pos + need {
        return Err(ImageIoError::TruncatedPixels {
            need,
            have: raw.len().saturating_sub(pos),
        });
    }

    let mut band_data = vec![Vec::with_capacity(width * height); bands];
    for chunk in raw[pos..pos + need].chunks_exact(bands) {
        for (b, &v) in chunk.iter().enumerate() {
            band_data[b].push(f64::from(v));
        }
    }
    Ok(Image::new(width, height, PixelType::Byte, band_data)?)
}

/// Read a PNM image from `path`.
///
/// # Errors
///
/// As [`read_pnm`], plus file-open failures.
pub fn load_pnm(path: impl AsRef<Path>) -> Result<Image, ImageIoError> {
    let file = std::fs::File::open(path)?;
    read_pnm(std::io::BufReader::new(file))
}

fn next_token(raw: &[u8], pos: &mut usize) -> Result<String, ImageIoError> {
    // Skip whitespace and `#` comments.
    loop {
        while *pos < raw.len() && raw[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if *pos < raw.len() && raw[*pos] == b'#' {
            while *pos < raw.len() && raw[*pos] != b'\n' {
                *pos += 1;
            }
        } else {
            break;
        }
    }
    let start = *pos;
    while *pos < raw.len() && !raw[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    if start == *pos {
        return Err(ImageIoError::UnexpectedEof);
    }
    String::from_utf8(raw[start..*pos].to_vec()).map_err(|_| ImageIoError::NonUtf8Header)
}

fn parse_token(raw: &[u8], pos: &mut usize) -> Result<usize, ImageIoError> {
    let tok = next_token(raw, pos)?;
    tok.parse().map_err(|_| ImageIoError::BadHeaderToken(tok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::synth;

    #[test]
    fn pgm_roundtrip() {
        let mut rng = SplitMix64::new(5);
        let img = synth::noise(17, 9, 64, &mut rng);
        let mut buf = Vec::new();
        write_pnm(&img, &mut buf).unwrap();
        let back = read_pnm(buf.as_slice()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn ppm_roundtrip() {
        let mut rng = SplitMix64::new(5);
        let bands: Vec<_> = (0..3).map(|_| synth::noise(8, 6, 32, &mut rng)).collect();
        let rgb = synth::stack_bands(&bands);
        let mut buf = Vec::new();
        write_pnm(&rgb, &mut buf).unwrap();
        let back = read_pnm(buf.as_slice()).unwrap();
        assert_eq!(back, rgb);
    }

    #[test]
    fn float_images_are_normalized_on_write() {
        let img = Image::from_fn_float(4, 4, |x, y| (x as f64 - y as f64) * 100.0);
        let mut buf = Vec::new();
        write_pnm(&img, &mut buf).unwrap();
        let back = read_pnm(buf.as_slice()).unwrap();
        assert_eq!(back.pixel_type(), PixelType::Byte);
        assert_eq!(back.min_max(), (0.0, 255.0));
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let data = b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff";
        let img = read_pnm(&data[..]).unwrap();
        assert_eq!(img.get(1, 1, 0), 255.0);
        assert_eq!(img.get(1, 0, 0), 64.0);
    }

    #[test]
    fn malformed_inputs_yield_structured_errors() {
        assert!(matches!(
            read_pnm(&b"P4\n1 1\n255\n\x00"[..]),
            Err(ImageIoError::UnsupportedMagic(m)) if m == "P4"
        ));
        assert!(matches!(
            read_pnm(&b"P5\n2 2\n255\n\x00"[..]),
            Err(ImageIoError::TruncatedPixels { need: 4, have: 1 })
        ));
        assert!(matches!(
            read_pnm(&b"P5\nx y\n255\n"[..]),
            Err(ImageIoError::BadHeaderToken(t)) if t == "x"
        ));
        assert!(matches!(
            read_pnm(&b"P5\n1 1\n70000\n\x00\x00"[..]),
            Err(ImageIoError::UnsupportedMaxval(70000))
        ));
        assert!(matches!(read_pnm(&b"P5\n1"[..]), Err(ImageIoError::UnexpectedEof)));
    }

    #[test]
    fn hostile_dimensions_are_rejected_without_allocating() {
        // 5 exabytes declared in a 30-byte header.
        let data = b"P6\n99999999999 99999999999\n255\n";
        assert!(matches!(
            read_pnm(&data[..]),
            Err(ImageIoError::OversizedDimensions { .. })
        ));
    }

    #[test]
    fn errors_downgrade_to_imaging_error() {
        let err = read_pnm(&b"P4\n"[..]).unwrap_err();
        let pooled: crate::ImagingError = err.into();
        assert!(pooled.to_string().contains("P4"));
    }

    #[test]
    fn two_band_images_cannot_be_written() {
        let mut rng = SplitMix64::new(5);
        let bands: Vec<_> = (0..2).map(|_| synth::noise(4, 4, 8, &mut rng)).collect();
        let img = synth::stack_bands(&bands);
        assert!(matches!(
            write_pnm(&img, Vec::new()),
            Err(ImageIoError::UnsupportedBandCount(2))
        ));
    }

    #[test]
    fn save_and_load_via_files() {
        let dir =
            std::env::temp_dir().join(format!("memo_imaging_io_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let mut rng = SplitMix64::new(6);
        let img = synth::noise(12, 12, 16, &mut rng);
        save_pnm(&img, &path).unwrap();
        let back = load_pnm(&path).unwrap();
        assert_eq!(back, img);
        std::fs::remove_dir_all(&dir).ok();
    }
}
