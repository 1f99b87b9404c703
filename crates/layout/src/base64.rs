//! Base64 (RFC 4648: the standard alphabet, `=` padding) for the GDS image
//! a layout checkpoint holds as strings.
//!
//! A checkpoint cuts the image into chunks of a multiple of 3 bytes, so
//! every chunk but the last encodes without padding, and each chunk
//! decodes on its own.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The mark in `DIGITS` of a byte that is no base64 digit.
const INVALID: u8 = 0xFF;
/// What each text byte decodes to: its 6-bit digit, or `INVALID`.
const DIGITS: [u8; 256] = {
    let mut digits = [INVALID; 256];
    let mut value = 0;
    while value < 64 {
        digits[ALPHABET[value] as usize] = value as u8;
        value += 1;
    }
    digits
};

/// Appends the base64 text of `bytes` to `out`: four ASCII digits per three
/// bytes, the last group padded with `=`.
pub(crate) fn encode_into(bytes: &[u8], out: &mut Vec<u8>) {
    let digit = |group: u32, shift: u32| ALPHABET[(group >> shift & 63) as usize];
    let mut groups = bytes.chunks_exact(3);
    for group in groups.by_ref() {
        let group = u32::from(group[0]) << 16 | u32::from(group[1]) << 8 | u32::from(group[2]);
        out.extend_from_slice(&[18, 12, 6, 0].map(|shift| digit(group, shift)));
    }
    match *groups.remainder() {
        [a] => {
            let group = u32::from(a) << 16;
            out.extend_from_slice(&[digit(group, 18), digit(group, 12), b'=', b'=']);
        }
        [a, b] => {
            let group = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[digit(group, 18), digit(group, 12), digit(group, 6), b'=']);
        }
        _ => {}
    }
}

/// Appends the bytes base64 `text` encodes to `out`.
///
/// # Errors
///
/// Describes the first fault: a length that is not a multiple of 4, or a
/// character that is not a base64 digit or is `=` anywhere but in the last
/// two places. `out` may then hold part of the text's bytes.
pub(crate) fn decode_into(text: &str, out: &mut Vec<u8>) -> Result<(), String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!("has {} characters, not a multiple of 4", text.len()));
    }
    let padding = match text {
        [.., b'=', b'='] => 2,
        [.., b'='] => 1,
        _ => 0,
    };
    let digits = &text[..text.len() - padding];
    out.reserve(digits.len() * 3 / 4);
    let mut group = 0u32;
    for (at, &character) in digits.iter().enumerate() {
        let digit = DIGITS[usize::from(character)];
        if digit == INVALID {
            let shown = char::from(character);
            return Err(if character.is_ascii() {
                format!("holds {shown:?} at offset {at}, which is no base64 digit")
            } else {
                format!("holds a non-ASCII byte at offset {at}")
            });
        }
        group = group << 6 | u32::from(digit);
        if at % 4 == 3 {
            out.extend_from_slice(&group.to_be_bytes()[1..]);
            group = 0;
        }
    }
    match padding {
        2 => out.push((group >> 4) as u8),
        1 => out.extend_from_slice(&((group >> 2) as u16).to_be_bytes()),
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn encode(bytes: &[u8]) -> String {
        let mut out = Vec::new();
        encode_into(bytes, &mut out);
        String::from_utf8(out).unwrap()
    }

    fn decode(text: &str) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        decode_into(text, &mut out).map(|()| out)
    }

    #[test]
    fn the_rfc_4648_vectors_encode_and_decode() {
        for (bytes, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(bytes.as_bytes()), text);
            assert_eq!(decode(text).unwrap(), bytes.as_bytes());
        }
        assert_eq!(encode(&[0xFB, 0xFF, 0xBF]), "+/+/");
    }

    #[test]
    fn every_length_from_0_to_10_round_trips() {
        for len in 0..=10usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 77 + 200) as u8).collect();
            let text = encode(&bytes);
            assert_eq!(text.len(), len.div_ceil(3) * 4, "{len} bytes");
            assert_eq!(decode(&text).unwrap(), bytes, "{len} bytes");
        }
    }

    #[test]
    fn damaged_text_is_an_error_not_a_panic() {
        let error = decode("Zm9vY").unwrap_err();
        assert_eq!(error, "has 5 characters, not a multiple of 4");
        let error = decode("Zm9v!mFy").unwrap_err();
        assert_eq!(error, "holds '!' at offset 4, which is no base64 digit");
        assert!(decode("Zm=v").unwrap_err().contains("'=' at offset 2"));
        assert!(decode("A===").unwrap_err().contains("'=' at offset 1"));
        assert!(decode("====").unwrap_err().contains("'=' at offset 0"));
        assert_eq!(decode("Zm\u{e9}").unwrap_err(), "holds a non-ASCII byte at offset 2");
    }
}
